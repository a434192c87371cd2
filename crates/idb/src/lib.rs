//! # caz-idb
//!
//! Incomplete relational databases with marked (labeled) nulls: the data
//! model of *Certain Answers Meet Zero–One Laws* (Libkin, PODS 2018).
//!
//! * [`Value`]: constants ([`Cst`]) and marked nulls ([`NullId`]);
//! * [`Tuple`], [`Relation`], [`Database`], [`Schema`];
//! * [`Valuation`]: assignments of constants to nulls, including the
//!   `C`-bijective valuations behind naïve evaluation;
//! * [`ConstEnum`]: the canonical enumeration `c₁, c₂, …` of constants
//!   and the finite valuation spaces `Vᵏ(D)`;
//! * [`parse_database`]: a small text format;
//! * [`random_database`]: workload generation;
//! * [`iso_canonical`]: equivalence up to null renaming.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod codd;
pub mod database;
pub mod enumeration;
pub mod generator;
pub mod parser;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod valuation;
pub mod value;

pub use canonical::{
    canonical_hash, fnv1a_128, is_isomorphic, iso_canonical, null_automorphism_count,
    try_iso_canonical,
};
pub use codd::{is_codd, null_occurrences, to_codd, CoddResult};
pub use database::Database;
pub use enumeration::{ConstEnum, ValuationIter};
pub use generator::{random_complete_database, random_database, DbGenConfig};
pub use parser::{parse_args, parse_database, parse_database_with, Arg, ParseError, ParsedDb};
pub use relation::Relation;
pub use schema::Schema;
pub use tuple::{format_tuples, Tuple};
pub use valuation::Valuation;
pub use value::{
    cst, int, Cst, IdSpaceExhausted, NullId, Symbol, SymbolScope, Value, RESERVED_PREFIX,
};
