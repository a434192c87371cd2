//! # caz-core
//!
//! The primary contribution of *Certain Answers Meet Zero–One Laws*
//! (Libkin, PODS 2018): measures of certainty for query answers over
//! incomplete databases.
//!
//! * [`support`]: supports `Supp(Q, D, ā)`, generic events, certain and
//!   possible answers (decided exactly over Theorem 3's classes);
//! * [`measure`]: the finite measures `μᵏ` and the alternative `mᵏ`
//!   (Theorem 2) by exhaustive enumeration;
//! * [`poly_engine`]: exact closed forms — `|Suppᵏ|` as a polynomial in
//!   `k`, limits as ratios of leading coefficients (Theorems 1 and 3),
//!   the class census that yields every finite `μᵏ` in one pass, and
//!   the class walk behind every exact engine;
//! * [`theorems`]: the fast paths each theorem licenses (naïve
//!   evaluation for Theorem 1, the chase for Theorem 5, …);
//! * [`owa`]: open-world measures (Proposition 2);
//! * [`sampling`]: Monte-Carlo estimation of `μᵏ`;
//! * [`weighted`]: the preference-weighted extension proposed in §6 —
//!   convergence survives, the 0–1 law does not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod measure;
pub mod owa;
pub mod poly_engine;
pub mod proof_lemmas;
pub mod sampling;
pub mod support;
pub mod theorems;
pub mod weighted;

pub use measure::{m_k, m_k_series, mu_k, mu_k_conditional, mu_k_conditional_series, mu_k_series, Series};
pub use owa::{owa_m_k, OwaCount};
pub use poly_engine::{
    census_classes, census_poly, conditional_polys, exists_class, mu_conditional_exact, mu_exact,
    named_pool, support_poly, walk_classes, CensusTooLarge, SeriesCensus, SeriesCost,
    SeriesEngine, SupportPoly,
};
pub use proof_lemmas::{
    bijective_image_census, mu_k_bijective, non_bijective_exact, partition_of_valuations,
    BijectiveCounts,
};
pub use sampling::{estimate_mu_k, Estimate, MuSampler, SamplingError};
pub use support::{
    certain_answers, certainly_true, is_certain_answer, is_possible_answer, supp_k_count,
    supp_k_count_slice, support_is_full, support_is_nonempty, AndEvent, BoolQueryEvent,
    ConstraintEvent, ImpliesEvent, NotEvent, SuppEvent, TupleAnswerEvent,
};
pub use theorems::{
    almost_certainly_false, almost_certainly_true, mu, mu_conditional, mu_conditional_fd,
    mu_implication, mu_via_polynomials, sigma_almost_certainly_true, theorem5_applicability,
    Theorem5Refusal,
};
pub use approx::{three_valued_quality, ApproxReport};
pub use weighted::{
    mu_weighted, mu_weighted_conditional, mu_weighted_k, total_mass, Preference,
};
