//! # caz-arith
//!
//! Exact arithmetic substrate for the *Certain Answers Meet Zero–One
//! Laws* reproduction: arbitrary-precision integers ([`BigInt`]), exact
//! rationals ([`Ratio`]) and univariate polynomials over ℚ ([`Poly`]),
//! in which the support-polynomial engine of `caz-core` states its
//! counts.
//!
//! Everything is implemented from scratch: the measures `μ(Q|Σ, D)` of
//! the paper are exact rationals obtained as ratios of leading
//! coefficients of polynomials whose coefficients overflow machine
//! integers already for moderate inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod poly;
pub mod ratio;

pub use bigint::{BigInt, Sign};
pub use poly::Poly;
pub use ratio::Ratio;
