//! A bounded, std-only worker pool with per-job panic isolation and
//! queue-deadline admission control.
//!
//! Jobs are closures returning `Result<String, String>`; each runs under
//! `catch_unwind`, so a bug that panics inside one job produces an error
//! reply on that job's channel instead of killing a worker or the
//! server. The
//! queue is a `Mutex<VecDeque>` behind two condvars, so submission
//! applies backpressure once `queue_cap` jobs are waiting.
//!
//! Detached jobs may carry a **deadline**: a worker that dequeues a job
//! past its deadline does not run it — the callback fires immediately
//! with [`Outcome::Expired`], so stale work never occupies a worker and
//! the latency of jobs that *do* execute stays bounded by the deadline
//! plus one job's compute. The pool also tracks its live queue depth
//! (jobs submitted but not yet picked up), surfaced through the
//! server's `stats` as `queue_depth`.
//!
//! Each job runs start to finish on the worker that dequeued it, and
//! workers take jobs in submission order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The result a job's submitter receives.
pub type JobResult = Result<String, String>;

/// What ran server-side, attached to the result for metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The job closure returned normally.
    Completed,
    /// The job closure panicked and was converted to an error.
    Panicked,
    /// The job's queue deadline passed before a worker picked it up;
    /// the closure never ran (no cache, metrics, or store effects).
    Expired,
}

/// Invoked by a worker once a detached job finishes (normally, by
/// panic, or by deadline expiry). Runs on the worker thread, so it must
/// be cheap and must not panic — the reactor's callback just enqueues a
/// completion and writes one byte to a wakeup pipe.
pub type DoneCallback = Box<dyn FnOnce(JobResult, Outcome) + Send>;

/// How a finished job's result leaves the worker.
enum Delivery {
    /// Synchronous submitters block on a reply channel.
    Channel(SyncSender<(JobResult, Outcome)>),
    /// Detached submitters (the evented reactor) get a callback.
    Callback(DoneCallback),
}

struct Job {
    work: Box<dyn FnOnce() -> JobResult + Send>,
    delivery: Delivery,
    /// Expiry instant for detached jobs under a queue deadline.
    deadline: Option<Instant>,
}

/// A not-yet-submitted detached job: the work closure, the completion
/// callback, and an optional queue deadline. Returned intact by
/// [`WorkerPool::try_submit_detached`] when the queue is full, so the
/// caller can shed or park it without rebuilding the closures.
pub struct DetachedJob {
    /// The evaluation to run on a worker.
    pub work: Box<dyn FnOnce() -> JobResult + Send>,
    /// Invoked with the result (on the worker thread) when done.
    pub on_done: DoneCallback,
    /// If set, a worker that dequeues this job after the instant has
    /// passed skips the work and completes it with [`Outcome::Expired`].
    pub deadline: Option<Instant>,
}

/// Why [`WorkerPool::try_submit_detached`] declined a job. The job is
/// handed back so no work is lost.
pub enum TrySubmitError {
    /// The bounded queue is full; shed the job or retry after a
    /// completion frees a slot.
    Full(DetachedJob),
    /// The pool has shut down; the job will never run.
    ShutDown(DetachedJob),
}

struct PoolState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or the pool closes.
    available: Condvar,
    /// Signalled when a job leaves the queue (a submission slot freed).
    space: Condvar,
}

/// A fixed-size pool of worker threads pulling jobs off one bounded
/// FIFO queue.
///
/// All methods take `&self` (the handle is shared behind an `Arc` by the
/// server's connection threads), so shutdown state lives behind mutexes.
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Jobs submitted but not yet dequeued by a worker.
    depth: Arc<AtomicU64>,
    queue_cap: usize,
}

impl WorkerPool {
    /// Spawn `workers` threads (min 1) behind a queue of `queue_cap`
    /// pending jobs (min 1).
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
        });
        let depth = Arc::new(AtomicU64::new(0));
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let depth = Arc::clone(&depth);
                std::thread::Builder::new()
                    .name(format!("caz-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &depth))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            inner,
            workers: Mutex::new(workers),
            depth,
            queue_cap: queue_cap.max(1),
        }
    }

    /// Jobs currently waiting in the queue (submitted, not yet picked
    /// up by a worker). A point-in-time gauge for `stats`.
    pub fn queue_depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Submit a job; its result arrives on the returned receiver. Blocks
    /// once the queue is full (backpressure). Errors if the pool is shut
    /// down.
    pub fn submit(
        &self,
        work: Box<dyn FnOnce() -> JobResult + Send>,
    ) -> Result<Receiver<(JobResult, Outcome)>, &'static str> {
        let (reply_tx, reply_rx) = sync_channel(1);
        let job = Job {
            work,
            delivery: Delivery::Channel(reply_tx),
            deadline: None,
        };
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if !state.open {
                return Err("worker pool is shut down");
            }
            if state.jobs.len() < self.queue_cap {
                state.jobs.push_back(job);
                self.depth.fetch_add(1, Ordering::Relaxed);
                self.inner.available.notify_one();
                return Ok(reply_rx);
            }
            state = self.inner.space.wait(state).unwrap();
        }
    }

    /// Submit a job whose result is delivered by callback instead of a
    /// channel, without ever blocking the caller: a full queue hands the
    /// job back as [`TrySubmitError::Full`]. This is the reactor's entry
    /// point — one readiness thread must never block on backpressure, so
    /// it sheds returned jobs (admission control) or parks them for a
    /// retry when a completion signals a freed queue slot.
    pub fn try_submit_detached(&self, job: DetachedJob) -> Result<(), TrySubmitError> {
        let mut state = self.inner.state.lock().unwrap();
        if !state.open {
            return Err(TrySubmitError::ShutDown(job));
        }
        if state.jobs.len() >= self.queue_cap {
            return Err(TrySubmitError::Full(job));
        }
        state.jobs.push_back(Job {
            work: job.work,
            delivery: Delivery::Callback(job.on_done),
            deadline: job.deadline,
        });
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Convenience: submit and wait for the result.
    pub fn run(&self, work: Box<dyn FnOnce() -> JobResult + Send>) -> (JobResult, Outcome) {
        match self.submit(work) {
            Ok(rx) => rx
                .recv()
                .unwrap_or_else(|_| (Err("worker dropped the job".into()), Outcome::Completed)),
            Err(e) => (Err(e.into()), Outcome::Completed),
        }
    }

    /// Graceful shutdown: stop accepting jobs, let the workers drain
    /// every queued job, then join them. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.open = false;
        }
        self.inner.available.notify_all();
        self.inner.space.notify_all();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner, depth: &AtomicU64) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(j) = state.jobs.pop_front() {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    inner.space.notify_one();
                    break j;
                }
                if !state.open {
                    return;
                }
                state = inner.available.wait(state).unwrap();
            }
        };
        run_job(job);
    }
}

fn run_job(job: Job) {
    // Queue-deadline admission control: work that waited past its
    // deadline is already useless to the client — complete it as
    // Expired without running it, so the worker immediately moves
    // on to jobs that can still be answered in time. The closure
    // never runs, so expired jobs have no cache/metrics/store
    // side effects.
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            match job.delivery {
                Delivery::Channel(reply) => {
                    let _ = reply.send((Err(String::new()), Outcome::Expired));
                }
                Delivery::Callback(on_done) => on_done(Err(String::new()), Outcome::Expired),
            }
            return;
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(job.work));
    let (result, outcome) = match outcome {
        Ok(r) => (r, Outcome::Completed),
        Err(payload) => (Err(panic_message(payload.as_ref())), Outcome::Panicked),
    };
    match job.delivery {
        // The submitter may have gone away (client disconnected);
        // that only means nobody reads the result.
        Delivery::Channel(reply) => {
            let _ = reply.send((result, outcome));
        }
        // The callback fires even for panicked jobs — it runs
        // outside catch_unwind, after the panic was converted to an
        // error, so a reactor waiting on this completion always
        // hears back.
        Delivery::Callback(on_done) => on_done(result, outcome),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into());
    format!("evaluation panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_jobs_in_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let pool = WorkerPool::new(4, 16);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                pool.submit(Box::new(move || {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    Ok(format!("job {i}"))
                }))
                .unwrap()
            })
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            let (res, outcome) = rx.recv().unwrap();
            assert_eq!(res.unwrap(), format!("job {i}"));
            assert_eq!(outcome, Outcome::Completed);
        }
        assert!(peak.load(Ordering::SeqCst) >= 2, "jobs overlapped");
        assert_eq!(pool.queue_depth(), 0, "drained queue reads empty");
    }

    #[test]
    fn panicking_job_yields_error_and_pool_survives() {
        let pool = WorkerPool::new(2, 4);
        let (res, outcome) = pool.run(Box::new(|| panic!("poisoned query")));
        assert_eq!(outcome, Outcome::Panicked);
        let err = res.unwrap_err();
        assert!(err.contains("poisoned query"), "{err}");
        // Every worker still serves.
        for i in 0..4 {
            let (res, outcome) = pool.run(Box::new(move || Ok(format!("ok {i}"))));
            assert_eq!(outcome, Outcome::Completed);
            assert_eq!(res.unwrap(), format!("ok {i}"));
        }
    }

    #[test]
    fn detached_jobs_call_back_even_on_panic() {
        use std::sync::mpsc::channel;
        let pool = WorkerPool::new(2, 4);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        pool.try_submit_detached(DetachedJob {
            work: Box::new(|| Ok("fine".into())),
            on_done: Box::new(move |res, out| tx.send((res, out)).unwrap()),
            deadline: None,
        })
        .map_err(|_| "rejected")
        .unwrap();
        pool.try_submit_detached(DetachedJob {
            work: Box::new(|| panic!("detached boom")),
            on_done: Box::new(move |res, out| tx2.send((res, out)).unwrap()),
            deadline: None,
        })
        .map_err(|_| "rejected")
        .unwrap();
        let mut results: Vec<_> = (0..2).map(|_| rx.recv().unwrap()).collect();
        results.sort_by_key(|(_, o)| *o == Outcome::Panicked);
        assert_eq!(results[0].0.as_deref(), Ok("fine"));
        assert_eq!(results[1].1, Outcome::Panicked);
        assert!(results[1].0.as_ref().unwrap_err().contains("detached boom"));
    }

    #[test]
    fn expired_job_never_runs_and_reports_expired() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let pool = WorkerPool::new(1, 4);
        let (tx, rx) = channel();
        // Occupy the single worker long enough for the second job's
        // deadline to lapse while it waits in the queue.
        let tx_slow = tx.clone();
        pool.try_submit_detached(DetachedJob {
            work: Box::new(|| {
                std::thread::sleep(Duration::from_millis(120));
                Ok("slow".into())
            }),
            on_done: Box::new(move |res, out| tx_slow.send((res, out)).unwrap()),
            deadline: None,
        })
        .map_err(|_| "rejected")
        .unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let ran_flag = Arc::clone(&ran);
        pool.try_submit_detached(DetachedJob {
            work: Box::new(move || {
                ran_flag.store(true, Ordering::SeqCst);
                Ok("should not run".into())
            }),
            on_done: Box::new(move |res, out| tx.send((res, out)).unwrap()),
            deadline: Some(Instant::now() + Duration::from_millis(10)),
        })
        .map_err(|_| "rejected")
        .unwrap();
        let first = rx.recv().unwrap();
        assert_eq!(first.0.as_deref(), Ok("slow"));
        let second = rx.recv().unwrap();
        assert_eq!(second.1, Outcome::Expired);
        assert!(!ran.load(Ordering::SeqCst), "expired work must never run");
    }

    #[test]
    fn queue_depth_tracks_waiting_jobs() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let pool = WorkerPool::new(1, 8);
        let (gate_tx, gate_rx) = channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let (done_tx, done_rx) = channel();
        let gate_done = done_tx.clone();
        pool.try_submit_detached(DetachedJob {
            work: Box::new(move || {
                gate_rx.lock().unwrap().recv().ok();
                Ok("gated".into())
            }),
            on_done: Box::new(move |res, _| gate_done.send(res).unwrap()),
            deadline: None,
        })
        .map_err(|_| "rejected")
        .unwrap();
        // Give the worker a moment to dequeue the gated job, then pile
        // three more behind it: depth must read exactly those three.
        std::thread::sleep(Duration::from_millis(30));
        for i in 0..3 {
            let done_tx = done_tx.clone();
            pool.try_submit_detached(DetachedJob {
                work: Box::new(move || Ok(format!("j{i}"))),
                on_done: Box::new(move |res, _| done_tx.send(res).unwrap()),
                deadline: None,
            })
            .map_err(|_| "rejected")
            .unwrap();
        }
        assert_eq!(pool.queue_depth(), 3);
        gate_tx.send(()).unwrap();
        for _ in 0..4 {
            done_rx.recv().unwrap().unwrap();
        }
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn full_queue_hands_the_detached_job_back() {
        use std::sync::mpsc::channel;
        // One worker blocked on a gate + a queue of one: the third
        // submission must come back as Full with its closures intact.
        let pool = WorkerPool::new(1, 1);
        let (gate_tx, gate_rx) = channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let (done_tx, done_rx) = channel();
        let submit = |msg: &'static str| DetachedJob {
            work: Box::new(move || Ok(msg.into())),
            on_done: {
                let done_tx = done_tx.clone();
                Box::new(move |res, _| done_tx.send(res).unwrap())
            },
            deadline: None,
        };
        pool.try_submit_detached(DetachedJob {
            work: Box::new(move || {
                gate_rx.lock().unwrap().recv().ok();
                Ok("gated".into())
            }),
            on_done: {
                let done_tx = done_tx.clone();
                Box::new(move |res, _| done_tx.send(res).unwrap())
            },
            deadline: None,
        })
        .map_err(|_| "rejected")
        .unwrap();
        // Give the worker a moment to pick up the gated job, then fill
        // the single queue slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.try_submit_detached(submit("queued")).map_err(|_| "rejected").unwrap();
        let parked = match pool.try_submit_detached(submit("parked")) {
            Err(TrySubmitError::Full(job)) => job,
            _ => panic!("expected Full"),
        };
        gate_tx.send(()).unwrap();
        assert_eq!(done_rx.recv().unwrap().unwrap(), "gated");
        // The parked job resubmits and runs to completion — retrying on
        // Full exactly like the reactor does, since the queue slot only
        // frees once the worker pulls the queued job off the deque.
        let mut parked = Some(parked);
        while let Some(job) = parked.take() {
            match pool.try_submit_detached(job) {
                Ok(()) => {}
                Err(TrySubmitError::Full(job)) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    parked = Some(job);
                }
                Err(TrySubmitError::ShutDown(_)) => panic!("pool shut down"),
            }
        }
        let mut rest = vec![done_rx.recv().unwrap().unwrap(), done_rx.recv().unwrap().unwrap()];
        rest.sort();
        assert_eq!(rest, vec!["parked".to_string(), "queued".to_string()]);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(1, 16);
        let done = Arc::new(AtomicUsize::new(0));
        let rxs: Vec<_> = (0..6)
            .map(|_| {
                let done = Arc::clone(&done);
                pool.submit(Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    done.fetch_add(1, Ordering::SeqCst);
                    Ok("done".into())
                }))
                .unwrap()
            })
            .collect();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 6, "all queued jobs ran");
        for rx in rxs {
            assert!(rx.recv().unwrap().0.is_ok());
        }
        assert!(pool.submit(Box::new(|| Ok(String::new()))).is_err());
    }
}
