//! # caz-compare
//!
//! Qualitative comparison of query answers by support (Section 5 of
//! *Certain Answers Meet Zero–One Laws*):
//!
//! * [`sep()`]: the separation predicate `Sep(Q, D, ā, b̄)`, decided
//!   exactly over Theorem 3's classes (`caz_core::walk_classes`);
//! * [`orders`]: the orders `⊴` (coNP-complete) and `⊲` (DP-complete);
//! * [`bitmap`]: materialized support tables, one bit per class of the
//!   same walk, deciding all pairwise comparisons and `Best(Q, D)` at
//!   once;
//! * [`best`]: best answers and `Best_μ` (Propositions 7–8);
//! * [`ucq`]: Theorem 8's polynomial-time algorithms for unions of
//!   conjunctive queries;
//! * [`reductions`]: the graph-coloring hardness families of Theorem 6,
//!   used by the benchmarks to exhibit the exponential/polynomial split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod best;
pub mod bitmap;
pub mod orders;
pub mod reductions;
pub mod sep;
pub mod ucq;

pub use best::{best_among, best_answers, best_mu_answers, full_table};
pub use bitmap::{adom_candidates, support_table, BitSet, SupportTable};
pub use orders::{dominated, equivalent, strictly_better};
pub use reductions::{coloring_comparison_instance, dp_comparison_instance, ColoringInstance, DpInstance, Graph};
pub use sep::{sep, sep_events};
pub use ucq::UcqComparator;
