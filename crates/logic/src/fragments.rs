//! Syntactic fragments of first-order queries and the UCQ normal form.
//!
//! * conjunctive queries (the `∃,∧` fragment),
//! * unions of conjunctive queries (the `∃,∧,∨` fragment), with a
//!   disjunctive normal form used by the PTIME algorithms of Theorem 8,
//! * positive queries (negation-free),
//! * `Pos∀G` — positive FO with universal guards (Corollary 3): the
//!   fragment for which naïve evaluation computes certain answers, hence
//!   certain = almost-certainly-true.

use crate::ast::{Atom, Formula, Query, Term};
use caz_idb::Symbol;
use std::collections::{BTreeMap, BTreeSet};

/// True iff the formula uses only `Atom, =, ∧, ∃` (conjunctive).
pub fn is_cq_shaped(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) | Formula::Eq(_, _) => true,
        Formula::And(gs) => gs.iter().all(is_cq_shaped),
        Formula::Exists(_, g) => is_cq_shaped(g),
        _ => false,
    }
}

/// True iff the formula uses only `Atom, =, ∧, ∨, ∃` (a union of
/// conjunctive queries, up to normalization).
pub fn is_ucq_shaped(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) | Formula::Eq(_, _) => true,
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(is_ucq_shaped),
        Formula::Exists(_, g) => is_ucq_shaped(g),
        _ => false,
    }
}

/// True iff the formula is negation-free (allows both quantifiers).
pub fn is_positive(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) | Formula::Eq(_, _) => true,
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(is_positive),
        Formula::Exists(_, g) | Formula::Forall(_, g) => is_positive(g),
        Formula::Not(_) => false,
    }
}

/// True iff the formula is in `Pos∀G` (Compton's positive FO with
/// universal guards, as used in Corollary 3): atoms, closed under
/// `∧, ∨, ∃, ∀`, plus guarded implications `∀x̄ (α → φ)` where `α`
/// is a relational atom over distinct variables, all of them among x̄,
/// and `φ` is in the fragment. In our AST the implication appears as
/// `¬α ∨ φ`.
///
/// Every such formula is preserved under the maps a valuation induces
/// (`D → v(D)`, onto, identity on constants), which is what makes its
/// naïve answers certain. The positive part is Lyndon's case. For a
/// guard, a fact `α(b̄)` of `v(D)` is the image of a fact `α(ā)` of
/// `D`, and `φ` holds at ā in `D`; that needs `α`'s variables to be
/// distinct and bound by the guarded block. A guard with a constant, a
/// repeated variable or a variable bound further out can match in
/// `v(D)` where it matched nothing in `D`: under `Q(y) := T(y) ∧
/// ∀x (R(y) → S(x, y))` and `D = {T(⊥), R(a)}`, ⊥ is a naïve answer,
/// but not a certain one (`⊥ ↦ a`).
pub fn is_pos_forall_guarded(f: &Formula) -> bool {
    fn guard_over(a: &Atom, block: &[Symbol]) -> bool {
        let vars: Vec<Symbol> = a.args.iter().filter_map(Term::as_var).collect();
        let set: BTreeSet<_> = vars.iter().collect();
        vars.len() == a.args.len() && set.len() == vars.len() && set.iter().all(|v| block.contains(v))
    }
    match f {
        Formula::Atom(_) | Formula::Eq(_, _) => true,
        Formula::And(gs) | Formula::Or(gs) => gs.iter().all(is_pos_forall_guarded),
        Formula::Exists(_, g) => is_pos_forall_guarded(g),
        Formula::Forall(block, g) => {
            if is_pos_forall_guarded(g) {
                return true;
            }
            // Guarded implication: ¬α ∨ φ with α an atom over distinct vars.
            if let Formula::Or(items) = g.as_ref() {
                let mut guard = None;
                let mut rest = Vec::new();
                for item in items {
                    match item {
                        Formula::Not(inner) => match inner.as_ref() {
                            Formula::Atom(a) if guard.is_none() && guard_over(a, block) => {
                                guard = Some(a)
                            }
                            _ => return false,
                        },
                        other => rest.push(other),
                    }
                }
                return guard.is_some() && rest.into_iter().all(is_pos_forall_guarded);
            }
            false
        }
        Formula::Not(_) => false,
    }
}

/// One disjunct of a UCQ in normal form: `∃ ȳ (atoms ∧ equalities)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqDisjunct {
    /// Existentially quantified variables of this disjunct.
    pub exist_vars: Vec<Symbol>,
    /// Relational atoms.
    pub atoms: Vec<Atom>,
    /// Equality atoms.
    pub eqs: Vec<(Term, Term)>,
}

/// A union of conjunctive queries in disjunctive normal form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ucq {
    /// Display name.
    pub name: String,
    /// Head variables.
    pub head: Vec<Symbol>,
    /// The disjuncts (an empty list is the constant-false query).
    pub disjuncts: Vec<CqDisjunct>,
}

/// Rename every bound variable to `{v}${n}`, numbering the query's
/// binders from 0, so that binders are pairwise distinct and disjoint
/// from the free variables. The names depend only on the formula, so
/// normalizing the same query again interns no new symbols. `None` when
/// the id space is exhausted.
fn alpha_rename(f: &Formula) -> Option<Formula> {
    fn go(
        f: &Formula,
        map: &BTreeMap<Symbol, Symbol>,
        free: &BTreeSet<Symbol>,
        next: &mut usize,
    ) -> Option<Formula> {
        Some(match f {
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                let mut map = map.clone();
                let mut fresh = Vec::with_capacity(vs.len());
                for v in vs {
                    let nv = loop {
                        let nv = Symbol::try_intern(&format!("{v}${next}")).ok()?;
                        *next += 1;
                        if !free.contains(&nv) {
                            break nv;
                        }
                    };
                    map.insert(*v, nv);
                    fresh.push(nv);
                }
                let body = go(g, &map, free, next)?;
                match f {
                    Formula::Exists(_, _) => Formula::Exists(fresh, Box::new(body)),
                    _ => Formula::Forall(fresh, Box::new(body)),
                }
            }
            Formula::Not(g) => Formula::not(go(g, map, free, next)?),
            Formula::And(gs) => {
                Formula::And(gs.iter().map(|g| go(g, map, free, next)).collect::<Option<_>>()?)
            }
            Formula::Or(gs) => {
                Formula::Or(gs.iter().map(|g| go(g, map, free, next)).collect::<Option<_>>()?)
            }
            leaf => leaf.rename_vars(map),
        })
    }
    go(f, &BTreeMap::new(), &f.free_vars(), &mut 0)
}

fn dnf(f: &Formula) -> Option<Vec<CqDisjunct>> {
    match f {
        Formula::Atom(a) => Some(vec![CqDisjunct {
            exist_vars: Vec::new(),
            atoms: vec![a.clone()],
            eqs: Vec::new(),
        }]),
        Formula::Eq(a, b) => Some(vec![CqDisjunct {
            exist_vars: Vec::new(),
            atoms: Vec::new(),
            eqs: vec![(*a, *b)],
        }]),
        Formula::Or(gs) => {
            let mut out = Vec::new();
            for g in gs {
                out.extend(dnf(g)?);
            }
            Some(out)
        }
        Formula::And(gs) => {
            let mut acc = vec![CqDisjunct {
                exist_vars: Vec::new(),
                atoms: Vec::new(),
                eqs: Vec::new(),
            }];
            for g in gs {
                let parts = dnf(g)?;
                let mut next = Vec::with_capacity(acc.len() * parts.len());
                for a in &acc {
                    for p in &parts {
                        let mut c = a.clone();
                        c.exist_vars.extend(p.exist_vars.iter().copied());
                        c.atoms.extend(p.atoms.iter().cloned());
                        c.eqs.extend(p.eqs.iter().copied());
                        next.push(c);
                    }
                }
                acc = next;
            }
            Some(acc)
        }
        Formula::Exists(vs, g) => {
            let mut parts = dnf(g)?;
            for p in &mut parts {
                // Only record variables actually used by the disjunct.
                for v in vs {
                    p.exist_vars.push(*v);
                }
            }
            Some(parts)
        }
        _ => None,
    }
}

impl Ucq {
    /// Normalize a query into UCQ form, or `None` if it is not in the
    /// `∃,∧,∨` fragment.
    pub fn from_query(q: &Query) -> Option<Ucq> {
        if !is_ucq_shaped(&q.body) {
            return None;
        }
        let renamed = alpha_rename(&q.body)?;
        let mut disjuncts = dnf(&renamed)?;
        // Drop quantified variables that do not occur in the disjunct.
        for d in &mut disjuncts {
            let used: BTreeSet<Symbol> = d
                .atoms
                .iter()
                .flat_map(|a| a.args.iter().filter_map(Term::as_var))
                .chain(
                    d.eqs
                        .iter()
                        .flat_map(|(a, b)| [a, b].into_iter().filter_map(Term::as_var)),
                )
                .collect();
            d.exist_vars.retain(|v| used.contains(v));
            d.exist_vars.sort();
            d.exist_vars.dedup();
        }
        Some(Ucq { name: q.name.clone(), head: q.head.clone(), disjuncts })
    }

    /// `p`: the maximum number of relational atoms in a disjunct — the
    /// constant of Theorem 8's small-certificate bound `p + k`.
    pub fn max_atoms(&self) -> usize {
        self.disjuncts.iter().map(|d| d.atoms.len()).max().unwrap_or(0)
    }

    /// Convert back to a [`Query`].
    pub fn to_query(&self) -> Query {
        let disjuncts: Vec<Formula> = self
            .disjuncts
            .iter()
            .map(|d| {
                let mut conj: Vec<Formula> =
                    d.atoms.iter().cloned().map(Formula::Atom).collect();
                conj.extend(d.eqs.iter().map(|&(a, b)| Formula::Eq(a, b)));
                let inner = Formula::And(conj);
                if d.exist_vars.is_empty() {
                    inner
                } else {
                    Formula::Exists(d.exist_vars.clone(), Box::new(inner))
                }
            })
            .collect();
        Query::new(&self.name, self.head.clone(), Formula::Or(disjuncts))
            .expect("normal form is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{con, var};
    use crate::eval::eval_query;
    use caz_idb::parse_database;

    fn q(name: &str, head: &[&str], body: Formula) -> Query {
        Query::new(name, head.iter().map(|v| Symbol::intern(v)).collect(), body).unwrap()
    }

    #[test]
    fn shape_predicates() {
        let cq = Formula::exists(
            ["y"],
            Formula::and([
                Formula::atom("R", vec![var("x"), var("y")]),
                Formula::eq(var("y"), con("a")),
            ]),
        );
        assert!(is_cq_shaped(&cq));
        assert!(is_ucq_shaped(&cq));
        assert!(is_positive(&cq));

        let ucq = Formula::or([cq.clone(), Formula::atom("S", vec![var("x")])]);
        assert!(!is_cq_shaped(&ucq));
        assert!(is_ucq_shaped(&ucq));

        let neg = Formula::not(cq.clone());
        assert!(!is_ucq_shaped(&neg));
        assert!(!is_positive(&neg));

        let univ = Formula::forall(["z"], Formula::atom("U", vec![var("z")]));
        assert!(is_positive(&univ));
        assert!(!is_ucq_shaped(&univ));
    }

    #[test]
    fn pos_forall_guarded() {
        // ∀x (U(x) → ∃y R(x, y)): guarded, in the fragment.
        let guarded = Formula::forall(
            ["x"],
            Formula::implies(
                Formula::atom("U", vec![var("x")]),
                Formula::exists(["y"], Formula::atom("R", vec![var("x"), var("y")])),
            ),
        );
        assert!(is_pos_forall_guarded(&guarded));

        // ∀x (¬U(x)): not guarded (no positive part needed, but the guard
        // pattern requires an implication with a positive body).
        let plain_neg = Formula::forall(["x"], Formula::not(Formula::atom("U", vec![var("x")])));
        assert!(!is_pos_forall_guarded(&plain_neg));

        // Guard must have distinct variables: ∀x (R(x,x) → …) is not a guard.
        let bad_guard = Formula::forall(
            ["x"],
            Formula::implies(
                Formula::atom("R", vec![var("x"), var("x")]),
                Formula::atom("U", vec![var("x")]),
            ),
        );
        assert!(!is_pos_forall_guarded(&bad_guard));

        // Plain positive universal is allowed.
        let univ = Formula::forall(["z"], Formula::atom("U", vec![var("z")]));
        assert!(is_pos_forall_guarded(&univ));

        // A guard over a variable bound outside its block is no guard:
        // T(y) ∧ ∀x (R(y) → S(x, y)) holds naïvely at ⊥ over
        // {T(⊥), R(a)}, and fails once ⊥ ↦ a.
        let outer = Formula::and([
            Formula::atom("T", vec![var("y")]),
            Formula::forall(
                ["x"],
                Formula::implies(
                    Formula::atom("R", vec![var("y")]),
                    Formula::atom("S", vec![var("x"), var("y")]),
                ),
            ),
        ]);
        assert!(!is_pos_forall_guarded(&outer));
        // Nor is a constant in the guard.
        let constant = Formula::forall(
            ["x"],
            Formula::implies(
                Formula::atom("R", vec![var("x"), con("c")]),
                Formula::atom("U", vec![var("x")]),
            ),
        );
        assert!(!is_pos_forall_guarded(&constant));
        // A guard over part of its block is one.
        let part = Formula::forall(
            ["x", "z"],
            Formula::implies(
                Formula::atom("U", vec![var("x")]),
                Formula::atom("R", vec![var("x"), var("z")]),
            ),
        );
        assert!(is_pos_forall_guarded(&part));
    }

    #[test]
    fn ucq_normal_form_structure() {
        // (∃y R(x,y)) ∨ (S(x) ∧ ∃y T(y, x))
        let body = Formula::or([
            Formula::exists(["y"], Formula::atom("R", vec![var("x"), var("y")])),
            Formula::and([
                Formula::atom("S", vec![var("x")]),
                Formula::exists(["y"], Formula::atom("T", vec![var("y"), var("x")])),
            ]),
        ]);
        let query = q("u", &["x"], body);
        let ucq = Ucq::from_query(&query).unwrap();
        assert_eq!(ucq.disjuncts.len(), 2);
        assert_eq!(ucq.max_atoms(), 2);
        assert_eq!(ucq.disjuncts[0].atoms.len(), 1);
        assert_eq!(ucq.disjuncts[0].exist_vars.len(), 1);
        assert_eq!(ucq.disjuncts[1].atoms.len(), 2);
    }

    #[test]
    fn normal_form_preserves_semantics() {
        let db = parse_database("R(a, b). R(b, a). S(a). T(c, b).").unwrap().db;
        let body = Formula::or([
            Formula::exists(["y"], Formula::atom("R", vec![var("x"), var("y")])),
            Formula::and([
                Formula::atom("S", vec![var("x")]),
                Formula::exists(["y"], Formula::atom("T", vec![var("y"), var("x")])),
            ]),
        ]);
        let query = q("u", &["x"], body);
        let round = Ucq::from_query(&query).unwrap().to_query();
        assert_eq!(eval_query(&query, &db), eval_query(&round, &db));
    }

    #[test]
    fn distribution_of_and_over_or() {
        // (A(x) ∨ B(x)) ∧ (C(x) ∨ D(x)) → 4 disjuncts.
        let body = Formula::and([
            Formula::or([
                Formula::atom("A", vec![var("x")]),
                Formula::atom("B", vec![var("x")]),
            ]),
            Formula::or([
                Formula::atom("C", vec![var("x")]),
                Formula::atom("D", vec![var("x")]),
            ]),
        ]);
        let ucq = Ucq::from_query(&q("u", &["x"], body)).unwrap();
        assert_eq!(ucq.disjuncts.len(), 4);
        assert!(ucq.disjuncts.iter().all(|d| d.atoms.len() == 2));
    }

    #[test]
    fn shared_binder_names_are_separated() {
        // ∃y R(x,y) ∨ ∃y S(y): the two y's must not clash after merging.
        let body = Formula::or([
            Formula::exists(["y"], Formula::atom("R", vec![var("x"), var("y")])),
            Formula::exists(["y"], Formula::atom("S", vec![var("y")])),
        ]);
        let ucq = Ucq::from_query(&q("u", &["x"], body)).unwrap();
        assert_eq!(ucq.disjuncts.len(), 2);
        assert_ne!(
            ucq.disjuncts[0].exist_vars[0],
            ucq.disjuncts[1].exist_vars[0]
        );
        let db = parse_database("R(a, b). S(c).").unwrap().db;
        let round = ucq.to_query();
        assert_eq!(eval_query(&round, &db).len(), 3); // a from R; a,b,c from S-disjunct
    }

    #[test]
    fn renaming_is_per_query_and_avoids_free_names() {
        // The free variable `y$0` is what the first binder would be
        // named; the binder must skip it. Normalizing again yields the
        // same symbols, so repeated normalization interns nothing.
        let body = Formula::and([
            Formula::atom("S", vec![var("y$0")]),
            Formula::exists(["y"], Formula::atom("R", vec![var("y$0"), var("y")])),
        ]);
        let query = q("u", &["y$0"], body);
        let ucq = Ucq::from_query(&query).unwrap();
        assert_eq!(ucq.disjuncts[0].exist_vars, [Symbol::intern("y$1")]);
        assert_eq!(Ucq::from_query(&query).unwrap(), ucq);
    }

    #[test]
    fn non_ucq_rejected() {
        let body = Formula::not(Formula::atom("R", vec![var("x"), var("x")]));
        assert!(Ucq::from_query(&q("n", &["x"], body)).is_none());
    }
}
