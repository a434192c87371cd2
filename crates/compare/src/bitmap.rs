//! Support bitmaps: the whole support structure of a query over one
//! database, materialized once.
//!
//! With `A = Const(D) ∪ C ∪` the candidates' constants, every support is
//! a union of Theorem 3's classes over `A` (genericity), so walking the
//! classes once and recording, for every candidate tuple, the bitset of
//! supporting classes decides *all* pairwise comparisons and the
//! best-answer set by bitset algebra.

use caz_core::{named_pool, walk_classes};
use caz_idb::{Database, Tuple, Value};
use caz_logic::{Evaluator, Query};
use std::ops::ControlFlow;

/// A dense bitset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bitset of the given length.
    pub fn new(len: usize) -> BitSet {
        BitSet { blocks: vec![0; len.div_ceil(64)], len }
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        self.blocks[i / 64] |= 1 << (i % 64);
    }

    /// Append one bit, growing the set by one.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.blocks.push(0);
        }
        self.len += 1;
        if bit {
            self.set(self.len - 1);
        }
    }

    /// Get bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.blocks[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Is `self ⊆ other`?
    pub fn subset_of(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Is `self ⊂ other`?
    pub fn proper_subset_of(&self, other: &BitSet) -> bool {
        self.subset_of(other) && self != other
    }

    /// Is every bit set?
    pub fn is_full(&self) -> bool {
        self.count() == self.len
    }

    /// Total number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }
}

/// The materialized support structure of `Q` on `D` for a candidate set.
pub struct SupportTable {
    /// The candidate tuples, in input order.
    pub candidates: Vec<Tuple>,
    /// `supports[i]`: bit `k` is set iff the `k`-th class of the walk
    /// supports candidate `i`.
    pub supports: Vec<BitSet>,
}

impl SupportTable {
    /// `candidates[i] ⊴ candidates[j]`?
    pub fn dominated(&self, i: usize, j: usize) -> bool {
        self.supports[i].subset_of(&self.supports[j])
    }

    /// `candidates[i] ⊲ candidates[j]`?
    pub fn strictly_better(&self, i: usize, j: usize) -> bool {
        self.supports[i].proper_subset_of(&self.supports[j])
    }

    /// Indices of `Best(Q, D)` within the candidate set: tuples with no
    /// strictly better candidate.
    pub fn best_indices(&self) -> Vec<usize> {
        (0..self.candidates.len())
            .filter(|&i| {
                !(0..self.candidates.len())
                    .any(|j| j != i && self.strictly_better(i, j))
            })
            .collect()
    }

    /// Candidates with full support — the certain answers within the
    /// candidate set.
    pub fn certain_indices(&self) -> Vec<usize> {
        (0..self.candidates.len())
            .filter(|&i| self.supports[i].is_full())
            .collect()
    }
}

/// All tuples over `adom(D)` of the given arity — the canonical
/// candidate set of the paper (answers are tuples over the active
/// domain).
pub fn adom_candidates(db: &Database, arity: usize) -> Vec<Tuple> {
    let adom: Vec<Value> = db.adom().into_iter().collect();
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(arity);
    fn rec(adom: &[Value], arity: usize, cur: &mut Vec<Value>, out: &mut Vec<Tuple>) {
        if cur.len() == arity {
            out.push(Tuple::new(cur.clone()));
            return;
        }
        for &v in adom {
            cur.push(v);
            rec(adom, arity, cur, out);
            cur.pop();
        }
    }
    rec(&adom, arity, &mut cur, &mut out);
    out
}

/// Build the support table of `q` on `db` for the given candidates
/// (tuples over `adom(D)`): one evaluator per class of
/// [`caz_core::walk_classes`], asked about every candidate.
pub fn support_table(q: &Query, db: &Database, candidates: &[Tuple]) -> SupportTable {
    let consts = q.generic_consts().into_iter().chain(candidates.iter().flat_map(Tuple::consts));
    let named = named_pool(db, consts);
    let mut supports = vec![BitSet::default(); candidates.len()];
    walk_classes(db, &named, |v, vdb, _, _| {
        let ev = Evaluator::new(vdb, q);
        for (support, t) in supports.iter_mut().zip(candidates) {
            let vt = v.apply_tuple(t);
            support.push(vt.is_complete() && ev.satisfies(&vt));
        }
        ControlFlow::Continue(())
    });
    SupportTable { candidates: candidates.to_vec(), supports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_idb::{cst, parse_database};
    use caz_logic::parse_query;

    #[test]
    fn bitset_algebra() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        a.set(0);
        a.set(129);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(a.subset_of(&b));
        assert!(a.proper_subset_of(&b));
        assert!(!b.subset_of(&a));
        assert_eq!(a.count(), 2);
        assert!(!a.is_full());
        assert!(!a.is_empty());
        assert!(BitSet::new(5).is_empty());
        assert!(a.subset_of(&a) && !a.proper_subset_of(&a));
        // Pushed bits land where `set` puts them, across block edges.
        let mut pushed = BitSet::default();
        for i in 0..130 {
            pushed.push(a.get(i));
        }
        assert_eq!(pushed, a);
    }

    #[test]
    fn table_agrees_with_sep() {
        let p = parse_database("R(1, _n1). R(2, _n2). S(1, _n2). S(_n3, _n1).").unwrap();
        let q = parse_query("Q(x, y) := R(x, y) & !S(x, y)").unwrap();
        let candidates = adom_candidates(&p.db, 2);
        let table = support_table(&q, &p.db, &candidates);
        assert_eq!(table.candidates.len(), candidates.len());
        for i in 0..candidates.len().min(12) {
            for j in 0..candidates.len().min(12) {
                let by_table = table.dominated(i, j);
                let by_sep =
                    !crate::sep::sep(&q, &p.db, &candidates[i], &candidates[j]);
                assert_eq!(by_table, by_sep, "{} vs {}", candidates[i], candidates[j]);
            }
        }
    }

    #[test]
    fn certain_answers_have_full_support() {
        let p = parse_database("R(a, _x).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let candidates = adom_candidates(&p.db, 2);
        let table = support_table(&q, &p.db, &candidates);
        let certain: Vec<&Tuple> = table
            .certain_indices()
            .into_iter()
            .map(|i| &table.candidates[i])
            .collect();
        assert_eq!(certain.len(), 1);
        assert_eq!(certain[0].values()[0], cst("a"));
    }

    #[test]
    fn adom_candidate_counts() {
        let p = parse_database("R(a, _x).").unwrap();
        assert_eq!(adom_candidates(&p.db, 0).len(), 1);
        assert_eq!(adom_candidates(&p.db, 1).len(), 2);
        assert_eq!(adom_candidates(&p.db, 2).len(), 4);
    }
}
