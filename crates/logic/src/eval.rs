//! Active-domain evaluation of first-order queries over *complete*
//! databases.
//!
//! Quantifiers range over `Const(D) ∪ C` where `C` is the query's
//! constant set; answers are tuples over the same domain. This evaluation
//! is generic in the sense of Definition 1: it commutes with every
//! permutation of `Const` fixing `C`.
//!
//! Both domains are built on first use. Deciding a sentence, or one
//! answer tuple, whose quantifiers all take the join fast path with no
//! leftover variable reads neither: that is the question the class
//! census asks once per class.

use crate::ast::{Atom, Formula, Query, Term};
use caz_idb::{Database, Symbol, Tuple, Value};
use std::cell::{Cell, OnceCell};
use std::collections::BTreeSet;

/// Evaluation environment: a stack of variable bindings (inner bindings
/// shadow outer ones).
#[derive(Default)]
struct Env {
    stack: Vec<(Symbol, Value)>,
}

impl Env {
    fn lookup(&self, v: Symbol) -> Option<Value> {
        self.lookup_above(0, v)
    }

    /// The binding of `v` pushed at or after position `mark`.
    fn lookup_above(&self, mark: usize, v: Symbol) -> Option<Value> {
        self.stack[mark..].iter().rev().find(|(s, _)| *s == v).map(|&(_, val)| val)
    }

    fn push(&mut self, v: Symbol, val: Value) {
        self.stack.push((v, val));
    }

    fn truncate(&mut self, n: usize) {
        self.stack.truncate(n);
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// An evaluator bound to one query and one complete database.
pub struct Evaluator<'a> {
    db: &'a Database,
    q: &'a Query,
    /// Quantifier domain: `Const(D) ∪ C`, `C` the query's constants,
    /// built on first use.
    dom: OnceCell<Vec<Value>>,
    /// Answer domain: `adom(D) = Const(D)` (the database is complete),
    /// built on first use. Queries "do not invent values" (§2 of the
    /// paper): answers are tuples over the active domain only, even
    /// when the query mentions constants outside it.
    adom: OnceCell<BTreeSet<Value>>,
    /// Whether [`Evaluator::satisfies`] has been asked before: the first
    /// question scans `D` instead of building the answer domain.
    asked: Cell<bool>,
    /// Use the join-based fast path for existential conjunctions of
    /// atoms (semantically equivalent; off only for ablation benches).
    use_joins: bool,
}

/// One `∃ vs (atom ∧ … ∧ eq ∧ …)` under the join fast path. Its
/// bindings live on the evaluation's [`Env`] above `mark`, so a
/// quantified variable bound there shadows an outer one.
struct Join<'f> {
    vs: &'f [Symbol],
    conjuncts: &'f [Formula],
    mark: usize,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator for `q`: quantifiers range over `Const(D)`
    /// plus the query's constants, answers over `Const(D)`. Panics if
    /// the database is incomplete — evaluating a query directly on nulls
    /// is exactly the mistake the paper's framework is about; use naïve
    /// evaluation instead.
    pub fn new(db: &'a Database, q: &'a Query) -> Evaluator<'a> {
        assert!(
            db.is_complete(),
            "direct evaluation requires a complete database; use naive evaluation for nulls"
        );
        Evaluator {
            db,
            q,
            dom: OnceCell::new(),
            adom: OnceCell::new(),
            asked: Cell::new(false),
            use_joins: true,
        }
    }

    /// Disable the join fast path (ablation only — results are
    /// identical, just slower on conjunctive subformulas).
    pub fn without_joins(mut self) -> Evaluator<'a> {
        self.use_joins = false;
        self
    }

    /// The quantifier domain.
    pub fn domain(&self) -> &[Value] {
        self.dom.get_or_init(|| {
            let mut dom = self.db.consts();
            dom.extend(self.q.generic_consts());
            dom.into_iter().map(Value::Const).collect()
        })
    }

    fn adom(&self) -> &BTreeSet<Value> {
        self.adom.get_or_init(|| self.db.consts().into_iter().map(Value::Const).collect())
    }

    /// `t ⊆ adom(D)`. The evaluator's first question scans `D`'s tuples
    /// (the census asks each class's evaluator one); a later one builds
    /// the answer domain once and looks each value up.
    fn within_adom(&self, t: &Tuple) -> bool {
        if self.adom.get().is_none() && !self.asked.replace(true) {
            let in_db = |v| self.db.relations().any(|r| r.iter().any(|u| u.values().contains(v)));
            return t.iter().all(in_db);
        }
        let adom = self.adom();
        t.iter().all(|v| adom.contains(v))
    }

    fn term_value(&self, t: &Term, env: &Env) -> Value {
        match t {
            Term::Const(c) => Value::Const(*c),
            Term::Var(v) => env
                .lookup(*v)
                .unwrap_or_else(|| panic!("unbound variable {v} during evaluation")),
        }
    }

    fn holds(&self, f: &Formula, env: &mut Env) -> bool {
        match f {
            Formula::Atom(a) => {
                let tuple: Tuple = a.args.iter().map(|t| self.term_value(t, env)).collect();
                self.db.relation_sym(a.rel).is_some_and(|r| r.contains(&tuple))
            }
            Formula::Eq(a, b) => self.term_value(a, env) == self.term_value(b, env),
            Formula::Not(g) => !self.holds(g, env),
            Formula::And(gs) => gs.iter().all(|g| self.holds(g, env)),
            Formula::Or(gs) => gs.iter().any(|g| self.holds(g, env)),
            Formula::Exists(vs, g) => {
                if self.use_joins {
                    if let Some(res) = self.join_exists(vs, g, env) {
                        return res;
                    }
                }
                self.quantify(vs, g, env, true)
            }
            Formula::Forall(vs, g) => !self.quantify(vs, g, env, false),
        }
    }

    /// Fast path for `∃ vs (atom ∧ … ∧ atom ∧ eq ∧ …)`: instead of
    /// iterating the domain for every quantified variable (`|dom|^|vs|`),
    /// backtrack over matching tuples of the atoms' relations — the
    /// standard join strategy. Returns `None` when the body is not a
    /// conjunction of relational atoms and equalities (the generic
    /// recursion then applies); semantically identical otherwise, since
    /// any witness assignment must match the atoms tuple-wise and
    /// leftover variables are still ranged over the full domain.
    fn join_exists(&self, vs: &[Symbol], g: &Formula, env: &mut Env) -> Option<bool> {
        let conjuncts = match g {
            Formula::And(items) => items.as_slice(),
            Formula::Atom(_) | Formula::Eq(_, _) => std::slice::from_ref(g),
            _ => return None,
        };
        if !conjuncts.iter().all(|c| matches!(c, Formula::Atom(_) | Formula::Eq(_, _))) {
            return None;
        }
        let join = Join { vs, conjuncts, mark: env.len() };
        let found = self.join_atoms(&join, env, 0);
        env.truncate(join.mark);
        Some(found)
    }

    /// Resolve a term under the join's bindings: a quantified variable
    /// is unbound (`None`) until the join binds it.
    fn join_resolve(&self, t: &Term, join: &Join<'_>, env: &Env) -> Option<Value> {
        match t {
            Term::Const(c) => Some(Value::Const(*c)),
            Term::Var(v) if join.vs.contains(v) => env.lookup_above(join.mark, *v),
            Term::Var(_) => Some(self.term_value(t, env)),
        }
    }

    /// Match the atoms from conjunct `i` on, in order, binding
    /// quantified variables tuple by tuple; then range the leftover
    /// variables and check the equalities.
    fn join_atoms(&self, join: &Join<'_>, env: &mut Env, i: usize) -> bool {
        let next = join.conjuncts[i..].iter().enumerate().find_map(|(o, c)| match c {
            Formula::Atom(a) => Some((i + o, a)),
            _ => None,
        });
        let Some((at, a)) = next else {
            return self.join_leftovers(join, env);
        };
        let Some(rel) = self.db.relation_sym(a.rel) else {
            return false;
        };
        let mark = env.len();
        for t in rel.iter() {
            if self.bind_atom(a, t, join, env) && self.join_atoms(join, env, at + 1) {
                return true;
            }
            env.truncate(mark);
        }
        false
    }

    /// Extend the join's bindings so that `a` matches `t`; false on a
    /// clash (the caller truncates what was pushed).
    fn bind_atom(&self, a: &Atom, t: &Tuple, join: &Join<'_>, env: &mut Env) -> bool {
        for (arg, &val) in a.args.iter().zip(t.values()) {
            match self.join_resolve(arg, join, env) {
                Some(existing) if existing != val => return false,
                Some(_) => {}
                None => {
                    let Term::Var(v) = arg else { unreachable!() };
                    env.push(*v, val);
                }
            }
        }
        true
    }

    /// Range the quantified variables no atom bound over the domain
    /// (they occur only in equalities, if anywhere), then check the
    /// equalities.
    fn join_leftovers(&self, join: &Join<'_>, env: &mut Env) -> bool {
        if let Some(&v) = join.vs.iter().find(|&&v| env.lookup_above(join.mark, v).is_none()) {
            let mark = env.len();
            for &val in self.domain() {
                env.push(v, val);
                let found = self.join_leftovers(join, env);
                env.truncate(mark);
                if found {
                    return true;
                }
            }
            return false;
        }
        join.conjuncts.iter().all(|c| match c {
            Formula::Eq(a, b) => {
                self.join_resolve(a, join, env).unwrap() == self.join_resolve(b, join, env).unwrap()
            }
            _ => true,
        })
    }

    /// For `Exists` (`want = true`): is there an assignment making `g`
    /// true? For `Forall` (`want = false`): is there one making `g`
    /// false (the caller negates)?
    fn quantify(&self, vs: &[Symbol], g: &Formula, env: &mut Env, want: bool) -> bool {
        fn rec(
            ev: &Evaluator<'_>,
            vs: &[Symbol],
            g: &Formula,
            env: &mut Env,
            want: bool,
        ) -> bool {
            match vs.split_first() {
                None => ev.holds(g, env) == want,
                Some((&v, rest)) => {
                    let mark = env.len();
                    for &val in ev.domain() {
                        env.push(v, val);
                        let found = rec(ev, rest, g, env, want);
                        env.truncate(mark);
                        if found {
                            return true;
                        }
                    }
                    false
                }
            }
        }
        rec(self, vs, g, env, want)
    }

    /// Decide the Boolean query.
    pub fn eval_bool(&self) -> bool {
        assert!(self.q.is_boolean(), "{} is not Boolean", self.q.name);
        // A Boolean query's body is closed: `Query::new` checked that its
        // free variables lie in the empty head.
        self.holds(&self.q.body, &mut Env::default())
    }

    /// Is `t ∈ Q(D)`? Answers are tuples over `adom(D)`: a tuple with a
    /// component outside the active domain is never an answer, even if
    /// the body would be satisfied by it.
    pub fn satisfies(&self, t: &Tuple) -> bool {
        let q = self.q;
        assert_eq!(t.arity(), q.arity(), "tuple arity mismatch for {}", q.name);
        assert!(t.is_complete(), "satisfies() requires a constant tuple");
        if !self.within_adom(t) {
            return false;
        }
        let mut env = Env::default();
        for (&v, &val) in q.head.iter().zip(t.values()) {
            env.push(v, val);
        }
        self.holds(&q.body, &mut env)
    }

    /// All answers to the query: the set of `adom(D)`-tuples satisfying
    /// it.
    pub fn answers(&self) -> BTreeSet<Tuple> {
        let mut out = BTreeSet::new();
        let mut current: Vec<Value> = Vec::with_capacity(self.q.arity());
        fn rec(ev: &Evaluator<'_>, current: &mut Vec<Value>, out: &mut BTreeSet<Tuple>) {
            if current.len() == ev.q.arity() {
                let t = Tuple::new(current.clone());
                if ev.satisfies(&t) {
                    out.insert(t);
                }
                return;
            }
            for &val in ev.adom() {
                current.push(val);
                rec(ev, current, out);
                current.pop();
            }
        }
        rec(self, &mut current, &mut out);
        out
    }
}

/// Evaluate a query on a complete database (one-shot convenience).
pub fn eval_query(q: &Query, db: &Database) -> BTreeSet<Tuple> {
    Evaluator::new(db, q).answers()
}

/// Evaluate a Boolean query on a complete database.
pub fn eval_bool(q: &Query, db: &Database) -> bool {
    Evaluator::new(db, q).eval_bool()
}

/// Does `t` belong to `Q(db)`? (`db` complete, `t` over constants.)
pub fn tuple_in_answer(q: &Query, db: &Database, t: &Tuple) -> bool {
    Evaluator::new(db, q).satisfies(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{con, var};
    use crate::parser::parse_query;
    use caz_idb::{cst, int, parse_database, Cst};

    fn q(name: &str, head: &[&str], body: Formula) -> Query {
        Query::new(name, head.iter().map(|v| Symbol::intern(v)).collect(), body).unwrap()
    }

    #[test]
    fn atoms_and_connectives() {
        let db = parse_database("R(a, b). R(b, c). S(a, b).").unwrap().db;
        // Q(x,y) = R(x,y) ∧ ¬S(x,y)
        let query = q(
            "Q",
            &["x", "y"],
            Formula::and([
                Formula::atom("R", vec![var("x"), var("y")]),
                Formula::not(Formula::atom("S", vec![var("x"), var("y")])),
            ]),
        );
        let ans = eval_query(&query, &db);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Tuple::new(vec![cst("b"), cst("c")])));
    }

    #[test]
    fn quantifiers() {
        let db = parse_database("E(1, 2). E(2, 3).").unwrap().db;
        // distance-2 from 1: ∃y E(1,y) ∧ E(y,x)
        let query = q(
            "d2",
            &["x"],
            Formula::exists(
                ["y"],
                Formula::and([
                    Formula::atom("E", vec![con("1"), var("y")]),
                    Formula::atom("E", vec![var("y"), var("x")]),
                ]),
            ),
        );
        let ans = eval_query(&query, &db);
        assert_eq!(ans, [Tuple::new(vec![int(3)])].into());
    }

    #[test]
    fn forall_over_domain() {
        let db = parse_database("U(1). U(2). V(1). V(2).").unwrap().db;
        let all_u_in_v = q(
            "s",
            &[],
            Formula::forall(
                ["x"],
                Formula::implies(
                    Formula::atom("U", vec![var("x")]),
                    Formula::atom("V", vec![var("x")]),
                ),
            ),
        );
        assert!(eval_bool(&all_u_in_v, &db));
        let db2 = parse_database("U(1). U(3). V(1).").unwrap().db;
        assert!(!eval_bool(&all_u_in_v, &db2));
    }

    #[test]
    fn missing_relation_is_empty() {
        let db = parse_database("R(a, b).").unwrap().db;
        let query = q("s", &[], Formula::exists(["x"], Formula::atom("T", vec![var("x")])));
        assert!(!eval_bool(&query, &db));
    }

    #[test]
    fn query_constants_extend_domain() {
        // On a DB not containing c, ∃x x = c must still be true because
        // the domain includes the query's constants.
        let db = parse_database("R(a, a).").unwrap().db;
        let query = q(
            "s",
            &[],
            Formula::exists(["x"], Formula::eq(var("x"), con("zzz"))),
        );
        assert!(eval_bool(&query, &db));
    }

    #[test]
    fn boolean_query_answers_encode_truth() {
        let db = parse_database("R(a, a).").unwrap().db;
        let t = q("s", &[], Formula::exists(["x"], Formula::atom("R", vec![var("x"), var("x")])));
        assert_eq!(eval_query(&t, &db), [Tuple::empty()].into());
        let f = q("s", &[], Formula::fls());
        assert!(eval_query(&f, &db).is_empty());
    }

    #[test]
    #[should_panic(expected = "complete database")]
    fn incomplete_database_rejected() {
        let db = parse_database("R(a, _x).").unwrap().db;
        let query = q("s", &[], Formula::tru());
        let _ = eval_bool(&query, &db);
    }

    #[test]
    fn join_fast_path_agrees_with_domain_iteration() {
        let db = parse_database(
            "R(a, b). R(b, c). R(c, a). S(b, x). S(c, y). T(a).",
        )
        .unwrap()
        .db;
        let cases = [
            // Pure joins.
            "Q(x) := exists y. R(x, y) & S(y, x)",
            "Q(x) := exists y, z. R(x, y) & R(y, z) & T(z)",
            // Equalities among quantified variables (leftover-variable path).
            "Q := exists u, v. u = v & R(u, v)",
            "Q := exists u, v. u = v",
            // Repeated variables within an atom.
            "Q(x) := exists y. R(y, y) & S(y, x)",
            // Constants in atoms.
            "Q := exists y. R('a', y) & S(y, 'x')",
            // Missing relation.
            "Q := exists y. Nope(y)",
        ];
        for src in cases {
            let q = parse_query(src).unwrap();
            let fast = Evaluator::new(&db, &q);
            let slow = Evaluator::new(&db, &q).without_joins();
            assert_eq!(fast.answers(), slow.answers(), "{src}");
        }
    }

    #[test]
    fn join_respects_shadowing() {
        // The inner ∃x shadows the outer binding of x.
        let db = parse_database("R(a). S(b).").unwrap().db;
        let q = parse_query("Q(x) := R(x) & exists x. S(x)").unwrap();
        let ans = eval_query(&q, &db);
        assert_eq!(ans, [Tuple::new(vec![cst("a")])].into());
    }

    #[test]
    fn genericity_under_permutation() {
        // Q(π(D)) = π(Q(D)) for a permutation fixing the query constants.
        let db = parse_database("R(a, b). R(b, b). S(b, c).").unwrap().db;
        let query = q(
            "Q",
            &["x"],
            Formula::exists(
                ["y"],
                Formula::and([
                    Formula::atom("R", vec![var("x"), var("y")]),
                    Formula::atom("S", vec![var("y"), var("x")]),
                ]),
            ),
        );
        let pi = |v: Value| match v {
            Value::Const(c) if c == Cst::new("a") => Value::Const(Cst::new("c")),
            Value::Const(c) if c == Cst::new("c") => Value::Const(Cst::new("a")),
            other => other,
        };
        let permuted = db.map(pi);
        let lhs = eval_query(&query, &permuted);
        let rhs: BTreeSet<Tuple> = eval_query(&query, &db)
            .into_iter()
            .map(|t| t.map(pi))
            .collect();
        assert_eq!(lhs, rhs);
    }
}
