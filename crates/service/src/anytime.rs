//! Anytime evaluation of `series` jobs: streamed approximate estimates
//! plus work-stealing parallel support enumeration — the enumeration
//! engine of the one evaluation pipeline
//! ([`eval_on_worker`](crate::server::eval_on_worker)) for a `series`
//! job streamed to a live connection.
//!
//! With the planner on, most `series` jobs never get here: the class
//! census answers every row in one pass whose size depends on `m` and
//! `c` but not on `k`, and it runs inline on the worker. Anytime
//! serving covers the residual region where enumeration is still the
//! engine — a named-constant pool large enough that the census costs
//! more than `Σₖ kᵐ` valuations, more nulls than the census accepts, or
//! `--no-planner`.
//!
//! Sequential enumeration (`Session::eval_series_chunks`) walks
//! `μ¹..μᵏ` in ascending `k`, so a client staring at a `series Q 9`
//! over a 5-null database sees nothing for the entire `9⁵`-valuation
//! tail — the enumeration cliff measured by the E21 load class. This
//! module fixes both halves of that latency wall for the evented
//! server:
//!
//! * **Streaming**: while the exact enumeration runs, a Monte-Carlo
//!   sampler ([`MuSampler`]) interleaves on the owning worker and emits
//!   `ok* approx <value> ±<err> <samples>` chunks every
//!   [`ANYTIME_INTERVAL`], so the time to first byte is bounded by one
//!   sampling batch instead of `kᵐ` evaluations. Approx chunks are
//!   advisory: stripping them leaves a frame sequence byte-identical to
//!   the sequential path, and only the exact aggregate is ever cached.
//! * **Parallelism**: each `μᵏ` row's valuation space `Vᵏ(D)` is split
//!   into contiguous index ranges executed as work-stealing pool
//!   subtasks ([`WorkerPool::scatter`](crate::pool::WorkerPool)); the
//!   owning worker helps between sampling batches, so a lone expensive
//!   job spreads across idle workers instead of serializing on one.
//! * **Cancellation**: every subtask polls a shared [`AtomicBool`]
//!   (fired by the reactor when the client disconnects) and aborts
//!   within ~1024 valuations; a cancelled job settles as an internal
//!   [`proto::CANCELLED`] error that is neither cached nor written to
//!   any live connection.

use crate::pool::{resume_group_panic, JobResult};
use crate::proto;
use crate::reactor::Stream;
use crate::server::Shared;
use crate::session::push_series_row;
use caz_arith::Ratio;
use caz_core::{mu_k, supp_k_count_slice, Estimate, MuSampler, SuppEvent};
use caz_idb::{ConstEnum, Database};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Below this many valuations a `μᵏ` row runs inline on the owning
/// worker: scatter/steal bookkeeping would dominate the enumeration.
const SPLIT_MIN: u128 = 4096;

/// Target valuations per scattered subtask. Small enough that a stolen
/// slice finishes promptly (steals stay balanced, cancellation stays
/// responsive), large enough that the per-subtask overhead is noise.
const SLICE_LEN: u128 = 2048;

/// Cap on subtasks per row, so huge spaces don't flood the deque.
const MAX_SLICES: u128 = 64;

/// Target cadence of the streamed `ok* approx …` chunks.
pub(crate) const ANYTIME_INTERVAL: Duration = Duration::from_millis(25);

/// Samples in the first estimator batch (emitted before any exact
/// work begins) and in each follow-up batch between help slices.
const APPROX_BATCH: u32 = 256;

/// Render one approx chunk payload: `<value> ±<err> <samples>`, six
/// decimal places (see the grammar in [`proto`]).
fn approx_payload(est: &Estimate) -> String {
    format!("{:.6} ±{:.6} {}", est.value, est.std_error, est.samples)
}

/// Enumerate the rows `μ¹..μ^k_max` of one `series` job on a worker
/// thread, streaming estimates while the exact rows compute.
///
/// Rows go through [`Stream::row`] exactly as sequential enumeration
/// emits them; the approx stream ([`Stream::approx`]) and parallel
/// enumeration are layered on top, with approx chunks every
/// [`ANYTIME_INTERVAL`]. Returns the exact aggregate, or
/// `Err(`[`proto::CANCELLED`]`)` once `stream.cancel` is observed; rows
/// already emitted went to a connection that no longer exists, and
/// nothing is cached.
pub(crate) fn enumerate(
    shared: &Shared,
    event: Box<dyn SuppEvent>,
    db: &Database,
    k_max: usize,
    stream: &Stream,
) -> JobResult {
    let cancel = &stream.cancel;
    let emit_row = &mut |k, row: &str| stream.row(k, row);
    let emit_approx = &mut |payload: &str| stream.approx(payload);
    let event: Arc<dyn SuppEvent> = Arc::from(event);
    let db = Arc::new(db.clone());
    let m = db.nulls().len();

    // The estimator targets the final (most expensive) row μ^k_max and
    // only spins up when that row is genuinely expensive — cheap jobs
    // finish exactly before a sample batch would pay for itself.
    let expensive = !matches!(
        ConstEnum::count_valuations(k_max, m),
        Some(total) if total < SPLIT_MIN
    );
    let mut sampler = if expensive {
        MuSampler::new(&*event, &db, k_max, 0x0CA2_5EED ^ k_max as u64).ok()
    } else {
        None
    };
    // One eager batch before exact work starts: the first reply chunk
    // lands within one sampling batch of admission, deterministically,
    // instead of depending on how the help/steal race interleaves.
    if let Some(s) = sampler.as_mut() {
        if cancel.load(Ordering::Relaxed) {
            return Err(proto::CANCELLED.into());
        }
        emit_approx(&approx_payload(&s.batch(APPROX_BATCH)));
    }

    let mut aggregate = String::new();
    for k in 1..=k_max {
        if cancel.load(Ordering::Relaxed) {
            return Err(proto::CANCELLED.into());
        }
        let value = match ConstEnum::count_valuations(k, m) {
            // Overflowing u128 is beyond any enumerable budget; defer
            // to the sequential evaluator so the failure mode (its
            // panic message) is byte-identical to `--no-anytime`.
            None => mu_k(&*event, &db, k),
            Some(total) => {
                let hits = row_hits(
                    shared,
                    &event,
                    &db,
                    k,
                    total,
                    cancel,
                    sampler.as_mut(),
                    emit_approx,
                )?;
                Ratio::from_frac(hits as i128, total as i128)
            }
        };
        push_series_row(&mut aggregate, emit_row, k, value);
    }
    Ok(aggregate)
}

/// Count `|Suppᵏ|` for one row: inline for small spaces, scattered
/// across the pool for large ones, with the owner alternating between
/// helping on subtasks and streaming estimator batches.
#[allow(clippy::too_many_arguments)]
fn row_hits(
    shared: &Shared,
    event: &Arc<dyn SuppEvent>,
    db: &Arc<Database>,
    k: usize,
    total: u128,
    cancel: &Arc<AtomicBool>,
    mut sampler: Option<&mut MuSampler<'_>>,
    emit_approx: &mut dyn FnMut(&str),
) -> Result<u64, String> {
    if total < SPLIT_MIN {
        return supp_k_count_slice(&**event, db, k, 0, total, cancel)
            .ok_or_else(|| proto::CANCELLED.to_string());
    }
    let slices = (total / SLICE_LEN).clamp(1, MAX_SLICES);
    let step = total / slices;
    let hits = Arc::new(AtomicU64::new(0));
    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..slices)
        .map(|i| {
            let (lo, hi) = (i * step, if i + 1 == slices { total } else { (i + 1) * step });
            let event = Arc::clone(event);
            let db = Arc::clone(db);
            let hits = Arc::clone(&hits);
            let cancel = Arc::clone(cancel);
            let metrics = Arc::clone(&shared.metrics);
            Box::new(move || {
                match supp_k_count_slice(&*event, &db, k, lo, hi, &cancel) {
                    Some(n) => {
                        hits.fetch_add(n, Ordering::Relaxed);
                    }
                    None => {
                        metrics.subtasks_cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let group = shared.pool.scatter(tasks);
    loop {
        if group.help(ANYTIME_INTERVAL) || cancel.load(Ordering::Relaxed) {
            break;
        }
        if let Some(s) = sampler.as_deref_mut() {
            emit_approx(&approx_payload(&s.batch(APPROX_BATCH)));
        }
    }
    // Drain the group even when cancelled: remaining subtasks observe
    // the flag within ~1024 valuations each, so this is prompt, and it
    // guarantees no subtask outlives the borrowed accumulator.
    let panicked = group.wait();
    shared
        .metrics
        .subtasks_stolen
        .fetch_add(group.stolen(), Ordering::Relaxed);
    if let Some(msg) = panicked {
        // Rethrow on the owning worker: the job boundary's catch frames
        // it exactly like a sequential panic would have been.
        resume_group_panic(msg);
    }
    if cancel.load(Ordering::Relaxed) {
        return Err(proto::CANCELLED.into());
    }
    Ok(hits.load(Ordering::Relaxed))
}
