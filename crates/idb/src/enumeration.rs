//! The canonical enumeration of `Const` and the finite valuation spaces
//! `Vᵏ(D)`.
//!
//! The measures of the paper fix an enumeration `c₁, c₂, …` of the
//! constants and restrict valuations to ranges inside `{c₁, …, c_k}`.
//! For `C`-generic queries the limit is independent of the enumeration
//! once the prefix covers `C ∪ Const(D)`; we therefore use the canonical
//! enumeration that lists the *named* constants (those of the database
//! and the query, sorted by name for determinism) first, followed by
//! machine-generated fresh constants. With this choice the finite-`k`
//! values `μᵏ` stabilize to their asymptotic form as early as possible,
//! matching the convention in the paper's proofs.

use crate::valuation::Valuation;
use crate::value::{Cst, NullId};
use std::collections::BTreeSet;

/// A concrete enumeration `c₁, c₂, …` of the constants: named constants
/// first, then fresh ones.
#[derive(Clone, Debug)]
pub struct ConstEnum {
    named: Vec<Cst>,
}

impl ConstEnum {
    /// Build from the set of named constants (`Const(D) ∪ C`); they are
    /// ordered by name for determinism.
    pub fn new(named: impl IntoIterator<Item = Cst>) -> ConstEnum {
        let set: BTreeSet<Cst> = named.into_iter().collect();
        let mut named: Vec<Cst> = set.into_iter().collect();
        named.sort_by_key(|c| c.name());
        ConstEnum { named }
    }

    /// Number of named constants (the `c` of the proofs: `|Const(D) ∪ C|`).
    pub fn named_count(&self) -> usize {
        self.named.len()
    }

    /// The named prefix.
    pub fn named(&self) -> &[Cst] {
        &self.named
    }

    /// The `i`-th constant of the enumeration, 0-based.
    pub fn nth(&self, i: usize) -> Cst {
        if i < self.named.len() {
            self.named[i]
        } else {
            Cst::fresh_in("e", i - self.named.len())
        }
    }

    /// The first `k` constants `{c₁, …, c_k}`.
    pub fn prefix(&self, k: usize) -> Vec<Cst> {
        (0..k).map(|i| self.nth(i)).collect()
    }

    /// Iterator over all valuations of `nulls` with range inside the first
    /// `k` constants — the set `Vᵏ(D)` of the paper. There are `k^m` of
    /// them for `m` nulls (exactly one — the empty valuation — if `m = 0`,
    /// and none if `k = 0 < m`).
    pub fn valuations(&self, nulls: &BTreeSet<NullId>, k: usize) -> ValuationIter {
        ValuationIter {
            nulls: nulls.iter().copied().collect(),
            pool: self.prefix(k),
            counter: vec![0; nulls.len()],
            done: k == 0 && !nulls.is_empty(),
            remaining: u128::MAX,
        }
    }

    /// Iterator over the contiguous index range `[start, end)` of `Vᵏ(D)`,
    /// in the same order as [`ConstEnum::valuations`]: the valuation at
    /// flat index `i` assigns `counter[pos] = (i / k^pos) % k` (the first
    /// null is the least-significant digit). Concatenating slices that
    /// cover `[0, k^m)` reproduces the full enumeration, so a support
    /// count can be taken in pieces, with other work in between.
    pub fn valuations_slice(
        &self,
        nulls: &BTreeSet<NullId>,
        k: usize,
        start: u128,
        end: u128,
    ) -> ValuationIter {
        let m = nulls.len();
        let total = ConstEnum::count_valuations(k, m).unwrap_or(u128::MAX);
        let end = end.min(total);
        if start >= end {
            return ValuationIter {
                nulls: Vec::new(),
                pool: Vec::new(),
                counter: Vec::new(),
                done: true,
                remaining: 0,
            };
        }
        // Seed the mixed-radix counter with the digits of `start`.
        let mut counter = vec![0; m];
        let mut d = start;
        for slot in counter.iter_mut() {
            *slot = (d % k as u128) as usize;
            d /= k as u128;
        }
        ValuationIter {
            nulls: nulls.iter().copied().collect(),
            pool: self.prefix(k),
            counter,
            done: false,
            remaining: end - start,
        }
    }

    /// `|Vᵏ(D)| = k^m` as a checked `u128` (None on overflow).
    pub fn count_valuations(k: usize, m: usize) -> Option<u128> {
        (k as u128).checked_pow(u32::try_from(m).ok()?)
    }
}

/// Iterator over `Vᵏ(D)` in lexicographic order of assignments.
pub struct ValuationIter {
    nulls: Vec<NullId>,
    pool: Vec<Cst>,
    counter: Vec<usize>,
    done: bool,
    /// Remaining items to yield; `u128::MAX` for unsliced iteration
    /// (which terminates by counter wrap-around instead).
    remaining: u128,
}

impl Iterator for ValuationIter {
    type Item = Valuation;

    fn next(&mut self) -> Option<Valuation> {
        if self.done || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let v = Valuation::from_pairs(
            self.nulls
                .iter()
                .zip(&self.counter)
                .map(|(&n, &i)| (n, self.pool[i])),
        );
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == self.counter.len() {
                self.done = true;
                break;
            }
            self.counter[pos] += 1;
            if self.counter[pos] < self.pool.len() {
                break;
            }
            self.counter[pos] = 0;
            pos += 1;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Cst;

    #[test]
    fn named_prefix_is_sorted_and_deduped() {
        let e = ConstEnum::new([Cst::new("b"), Cst::new("a"), Cst::new("b")]);
        assert_eq!(e.named_count(), 2);
        assert_eq!(e.nth(0), Cst::new("a"));
        assert_eq!(e.nth(1), Cst::new("b"));
        assert!(e.nth(2).is_fresh());
        assert_eq!(e.nth(2), e.nth(2));
        assert_ne!(e.nth(2), e.nth(3));
    }

    #[test]
    fn valuation_space_sizes() {
        let e = ConstEnum::new([Cst::new("a")]);
        let nulls: BTreeSet<NullId> = (0..3).map(|_| NullId::fresh()).collect();
        for k in 0..5 {
            let n = e.valuations(&nulls, k).count();
            assert_eq!(n as u128, ConstEnum::count_valuations(k, 3).unwrap(), "k={k}");
        }
    }

    #[test]
    fn zero_nulls_single_empty_valuation() {
        let e = ConstEnum::new([]);
        let nulls = BTreeSet::new();
        assert_eq!(e.valuations(&nulls, 0).count(), 1);
        assert_eq!(e.valuations(&nulls, 5).count(), 1);
        assert_eq!(ConstEnum::count_valuations(0, 0), Some(1));
    }

    #[test]
    fn valuations_distinct_and_ranged() {
        let e = ConstEnum::new([Cst::new("a"), Cst::new("z")]);
        let nulls: BTreeSet<NullId> = (0..2).map(|_| NullId::fresh()).collect();
        let k = 3;
        let pool: BTreeSet<Cst> = e.prefix(k).into_iter().collect();
        let all: Vec<Valuation> = e.valuations(&nulls, k).collect();
        assert_eq!(all.len(), 9);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 9, "valuations must be pairwise distinct");
        for v in &all {
            assert!(v.range().iter().all(|c| pool.contains(c)));
            assert_eq!(v.len(), 2);
        }
    }

    #[test]
    fn count_overflow_checked() {
        assert_eq!(ConstEnum::count_valuations(2, 127), Some(1 << 127));
        assert_eq!(ConstEnum::count_valuations(2, 200), None);
    }

    #[test]
    fn slices_concatenate_to_the_full_enumeration() {
        let e = ConstEnum::new([Cst::new("a"), Cst::new("b")]);
        let nulls: BTreeSet<NullId> = (0..3).map(|_| NullId::fresh()).collect();
        let k = 3;
        let total = ConstEnum::count_valuations(k, nulls.len()).unwrap();
        assert_eq!(total, 27);
        let full: Vec<Valuation> = e.valuations(&nulls, k).collect();
        // Uneven split points, including a mid-digit boundary.
        for bounds in [vec![0, 27], vec![0, 1, 5, 14, 27], vec![0, 13, 13, 27]] {
            let mut glued = Vec::new();
            for w in bounds.windows(2) {
                glued.extend(e.valuations_slice(&nulls, k, w[0], w[1]));
            }
            assert_eq!(glued, full, "split {bounds:?}");
        }
    }

    #[test]
    fn slice_bounds_are_clamped_and_empty_slices_yield_nothing() {
        let e = ConstEnum::new([Cst::new("a")]);
        let nulls: BTreeSet<NullId> = (0..2).map(|_| NullId::fresh()).collect();
        // end past k^m is clamped; start >= end is empty.
        assert_eq!(e.valuations_slice(&nulls, 2, 2, 100).count(), 2);
        assert_eq!(e.valuations_slice(&nulls, 2, 3, 3).count(), 0);
        assert_eq!(e.valuations_slice(&nulls, 2, 9, 12).count(), 0);
        // Zero nulls: the single empty valuation lives at index 0.
        let none = BTreeSet::new();
        assert_eq!(e.valuations_slice(&none, 5, 0, 1).count(), 1);
        assert_eq!(e.valuations_slice(&none, 5, 1, 2).count(), 0);
    }

    #[test]
    fn slice_starting_mid_space_matches_skipped_full_iteration() {
        let e = ConstEnum::new([Cst::new("a"), Cst::new("b"), Cst::new("c")]);
        let nulls: BTreeSet<NullId> = (0..4).map(|_| NullId::fresh()).collect();
        let k = 2;
        let full: Vec<Valuation> = e.valuations(&nulls, k).collect();
        let slice: Vec<Valuation> = e.valuations_slice(&nulls, k, 7, 13).collect();
        assert_eq!(slice, full[7..13]);
    }
}
