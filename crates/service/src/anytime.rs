//! Anytime evaluation of `series` jobs: streamed approximate estimates
//! while the exact rows enumerate — the enumeration engine of the one
//! evaluation pipeline ([`eval_on_worker`](crate::server::eval_on_worker))
//! for a `series` job streamed to a live connection.
//!
//! With the planner on, most `series` jobs never get here: the class
//! census answers every row in one pass whose size depends on `m` and
//! `c` but not on `k`, and it runs inline on the worker. Anytime
//! serving covers the residual region where enumeration is still the
//! engine — a named-constant pool large enough that the census costs
//! more than `Σₖ kᵐ` valuations, more nulls than the census accepts, or
//! `--no-planner`.
//!
//! Enumeration walks `μ¹..μᵏ` in ascending `k`, so a client staring at
//! a `series Q 9` over a 5-null database would see nothing for the
//! entire `9⁵`-valuation tail. The whole job runs on the worker that
//! dequeued it:
//!
//! * **Streaming**: each row's valuation space `Vᵏ(D)` is counted in
//!   fixed slices of [`SLICE_LEN`] valuations, and after any slice that
//!   ends [`ANYTIME_INTERVAL`] or more after the previous estimate, a
//!   Monte-Carlo sampler ([`MuSampler`]) draws one batch and the job
//!   emits `ok* approx <value> ±<err> <samples>`. One eager batch goes
//!   out before any exact work, so the time to first byte is one
//!   sampling batch instead of `kᵐ` evaluations. Approx chunks are
//!   advisory: stripping them leaves a frame sequence byte-identical to
//!   the sequential path (`serve --batch`, [`Session::eval`]), and only
//!   the exact aggregate is ever cached.
//! * **Cancellation**: each slice polls the job's cancel token (fired
//!   by the reactor when the client disconnects) before it starts; a
//!   cancelled job settles as an internal [`proto::CANCELLED`] error
//!   that is neither cached nor written to any live connection.
//!
//! [`Session::eval`]: crate::Session::eval

use crate::pool::JobResult;
use crate::proto;
use crate::reactor::Stream;
use crate::session::push_series_row;
use caz_arith::Ratio;
use caz_core::{mu_k, supp_k_count_slice, Estimate, MuSampler, SuppEvent};
use caz_idb::{ConstEnum, Database};
use std::time::{Duration, Instant};

/// Valuations counted between two looks at the clock (and at the cancel
/// token). Small enough that one slice takes well under
/// [`ANYTIME_INTERVAL`] even where each valuation evaluates a query over
/// dozens of facts.
const SLICE_LEN: u128 = 512;

/// The estimator runs only when the final row `μ^k_max` has at least
/// this many valuations: cheaper jobs finish exactly before a sample
/// batch would pay for itself.
const SAMPLE_MIN: u128 = 4096;

/// Target cadence of the streamed `ok* approx …` chunks.
const ANYTIME_INTERVAL: Duration = Duration::from_millis(25);

/// Samples in each estimator batch, the eager first one included.
const APPROX_BATCH: u32 = 256;

/// Render one approx chunk payload: `<value> ±<err> <samples>`, six
/// decimal places (see the grammar in [`proto`]).
fn approx_payload(est: &Estimate) -> String {
    format!("{:.6} ±{:.6} {}", est.value, est.std_error, est.samples)
}

/// The estimator of one job and when it last streamed a batch.
struct Estimator<'a> {
    sampler: MuSampler<'a>,
    last: Instant,
}

impl Estimator<'_> {
    /// Draw one batch and stream its estimate.
    fn emit(&mut self, stream: &Stream) {
        stream.approx(&approx_payload(&self.sampler.batch(APPROX_BATCH)));
        self.last = Instant::now();
    }
}

/// Enumerate the rows `μ¹..μ^k_max` of one `series` job on its worker,
/// streaming estimates while the exact rows compute.
///
/// Rows go through [`Stream::row`] exactly as sequential enumeration
/// emits them, with approx chunks ([`Stream::approx`]) in between.
/// Returns the exact aggregate, or `Err(`[`proto::CANCELLED`]`)` once
/// `stream.cancel` is observed; rows already emitted went to a
/// connection that no longer exists, and nothing is cached.
pub(crate) fn enumerate(
    event: Box<dyn SuppEvent>,
    db: &Database,
    k_max: usize,
    stream: &Stream,
) -> JobResult {
    let m = db.nulls().len();
    // The estimator targets the final (most expensive) row μ^k_max.
    let expensive = !matches!(
        ConstEnum::count_valuations(k_max, m),
        Some(total) if total < SAMPLE_MIN
    );
    let mut estimator = expensive
        .then(|| MuSampler::new(&*event, db, k_max, 0x0CA2_5EED ^ k_max as u64).ok())
        .flatten()
        .map(|sampler| Estimator { sampler, last: Instant::now() });
    // One eager batch before any exact work: the first chunk lands
    // within one sampling batch of the job starting.
    if let Some(e) = estimator.as_mut() {
        e.emit(stream);
    }

    let mut aggregate = String::new();
    for k in 1..=k_max {
        let value = match ConstEnum::count_valuations(k, m) {
            // Overflowing u128 is beyond any enumerable budget; defer
            // to the sequential evaluator so the failure mode (its
            // panic message) is byte-identical to `serve --batch`.
            None => mu_k(&*event, db, k),
            Some(total) => {
                let hits = row_hits(&*event, db, k, total, &mut estimator, stream)
                    .ok_or_else(|| proto::CANCELLED.to_string())?;
                Ratio::from_frac(hits as i128, total as i128)
            }
        };
        push_series_row(&mut aggregate, &mut |k, row| stream.row(k, row), k, value);
    }
    Ok(aggregate)
}

/// Count `|Suppᵏ|` for one row slice by slice, streaming an estimate
/// after any slice that ends [`ANYTIME_INTERVAL`] or more after the
/// previous one. `None` once the job's cancel token is observed.
fn row_hits(
    event: &dyn SuppEvent,
    db: &Database,
    k: usize,
    total: u128,
    estimator: &mut Option<Estimator<'_>>,
    stream: &Stream,
) -> Option<u64> {
    let mut hits = 0;
    let mut lo = 0;
    while lo < total {
        let hi = total.min(lo + SLICE_LEN);
        hits += supp_k_count_slice(event, db, k, lo, hi, &stream.cancel)?;
        lo = hi;
        if let Some(e) = estimator.as_mut().filter(|e| e.last.elapsed() >= ANYTIME_INTERVAL) {
            e.emit(stream);
        }
    }
    Some(hits)
}
