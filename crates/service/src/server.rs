//! The evaluation server: the session command language served over TCP
//! and over batch files, with shared worker pool, cache, and metrics.
//!
//! Concurrency model: a **single evented reactor thread**
//! ([`crate::reactor`]) owns the listener and every client socket in
//! non-blocking mode — per-connection state (facts, named queries,
//! constraints) lives in that connection's [`Session`]; the expensive
//! part — evaluation — is shipped to the shared [`WorkerPool`] as a
//! cloned-session job, so a handful of workers bound the exponential
//! compute regardless of client count, and the shared [`ShardedCache`]
//! amortizes identical (up to null renaming) requests across *all*
//! clients without serializing them on one lock. Replies complete
//! asynchronously: a worker finishing a job enqueues a completion and
//! wakes the reactor through a pipe registered in the same epoll set.
//!
//! This module holds everything the reactor and the offline batch
//! driver share, one path from a command line to its frames:
//!
//! * [`classify`] turns the line into either immediate reply frames or
//!   a job [`Group`] — frames already answered, members (one pool job
//!   each: a work item plus a [`Framing`]), and an optional terminal
//!   `done n` count. A single evaluation whose key the session's
//!   canonical-form memo already holds is a cache lookup and nothing
//!   more, so a hit on it is answered right there, on the calling
//!   thread, and accounted as a cached job;
//! * each member's worker closure ([`Member::job`]) runs
//!   [`eval_on_worker`] — the whole evaluation pipeline for every job
//!   kind: resolving the request, cache-key canonicalization (itself a
//!   color-refinement pass, so it must not run on the reactor thread),
//!   cache lookup, evaluation on a miss, and cache + persistent-store
//!   insertion — or [`plan_on_worker`], and accounts its own outcome
//!   there (executed or cached, route, latency, panics, errors), so
//!   drivers count only what they alone see: shed and expired jobs;
//! * [`frame`] turns each finished member into frames, the same way in
//!   both drivers; shed and expired members are `err busy` results
//!   framed like any other.
//!
//! The reactor submits members without blocking and frames them in
//! completion order, streaming `series` rows as they come; [`run_batch`]
//! submits them blocking and frames them in member order.
//!
//! With `--cache-path` set, [`Shared::new`] opens a [`caz_store::Store`]
//! and warm-starts the cache from it before the first request is
//! accepted; worker threads then feed fresh results to a write-behind
//! [`Flusher`] thread, so persistence costs the evaluation path one
//! bounded-channel send.
//!
//! Shutdown: `quit` ends one connection after its in-flight work
//! completes; a vanished client ends only that connection; the admin
//! `shutdown` command stops the acceptor **before** the `bye` reply is
//! attempted — a client that disconnects without reading its `bye`
//! cannot lose a server-wide shutdown — and then the reactor drains
//! gracefully: it stops reading from every connection, finishes each
//! accepted (admitted) command — never shedding during drain — flushes
//! the replies, and closes; only then are the pool's queued jobs
//! drained and the persistent store synced.
//!
//! Overload: with a queue deadline configured
//! ([`ServerConfig::queue_deadline_ms`]) the server answers `err busy`
//! instead of queueing unboundedly — see the *Overload replies* section
//! of [`crate::proto`] and the `jobs_shed_total` /
//! `deadline_expired_total` / `conn_inflight_rejected_total` /
//! `queue_depth` stats keys.

use crate::cache::{CacheKey, ShardedCache};
use crate::flush::Flusher;
use crate::metrics::Metrics;
use crate::pool::{JobResult, Outcome, WorkerPool};
use crate::proto::{decode_frame, encode_frame, WireFrame, WireReply};
use crate::reactor::{Reactor, Stream, MAX_LINE_BYTES};
use crate::replication::{MissPolicy, ReplicaHandle, ReplicationSink, Role};
use crate::session::{
    parse_eval_job, series_rows, EvalKind, EvalRequest, Reply, Request, Session, Sink,
};
use caz_core::{SeriesEngine, SuppEvent};
use caz_idb::Database;
use caz_planner::Route;
use caz_store::{FsyncPolicy, Store};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`] and [`run_batch`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:3707` (`:0` for ephemeral).
    pub addr: String,
    /// Worker threads evaluating jobs.
    pub workers: usize,
    /// Bounded queue depth before submission parks (backpressure).
    pub queue_cap: usize,
    /// Result-cache capacity in entries (split across shards).
    pub cache_capacity: usize,
    /// Number of independently locked cache shards (rounded up to a
    /// power of two).
    pub cache_shards: usize,
    /// Directory for the persistent result store (snapshot + WAL).
    /// `None` (the default) keeps the cache purely in-memory.
    pub cache_path: Option<PathBuf>,
    /// Whether the flusher fsyncs every WAL append batch. Compaction
    /// and clean shutdown sync regardless.
    pub fsync: FsyncPolicy,
    /// Route evaluations through the complexity-aware planner
    /// (`caz-planner`), taking theorem-licensed fast paths where their
    /// preconditions hold, and answering `series` jobs from one class
    /// census where that beats enumeration. Disabled (`--no-planner`),
    /// every job takes the forced enumeration route on the same
    /// pipeline and counts as `planner_fallback_total`.
    pub planner: bool,
    /// Admission control: the most commands one connection may have
    /// admitted (in flight or queued behind its in-flight command) at
    /// once. Lines past the cap are answered `err busy` — in reply
    /// order — without ever being parsed. `0` (the default) means
    /// unlimited, preserving deep-pipelining behavior.
    pub max_inflight_per_conn: usize,
    /// Admission control: how long a job may wait in the pool queue
    /// before it is answered `err busy` instead of running
    /// (`deadline_expired_total`). Setting this also switches the
    /// reactor from *parking* jobs when the pool queue is full to
    /// *shedding* them with `err busy` (`jobs_shed_total`), so queue
    /// wait — and with it the latency of accepted jobs — stays bounded
    /// under overload. `0` (the default) disables both: jobs wait
    /// however long backpressure takes.
    pub queue_deadline_ms: u64,
    /// Cap on *unsent* reply bytes buffered per connection. A peer that
    /// reads slower than its replies are produced (e.g. an unread
    /// streaming `series`) is disconnected once the buffer exceeds the
    /// cap, counted in `slow_reader_disconnects_total`. `0` disables
    /// the bound (the pre-cap behavior: unbounded growth).
    pub max_wbuf_bytes: usize,
    /// How this process participates in a cluster (see
    /// [`crate::replication::Role`]). [`Role::Replica`] servers never
    /// open a persistent store: their cache is fed by an external
    /// applier through [`Server::replica_handle`], and `cache_path` is
    /// ignored (the leader owns the only store).
    pub role: Role,
    /// Leader-side replication fanout: callbacks the flusher fires
    /// after each successful store write. Wired by the cluster layer;
    /// `None` everywhere else.
    pub replication: Option<Arc<dyn ReplicationSink>>,
    /// What a replica does with a cache miss (see
    /// [`crate::replication::MissPolicy`]). Ignored unless `role` is
    /// [`Role::Replica`].
    pub on_miss: MissPolicy,
    /// The leader's *client* address (`host:port`), required by
    /// [`MissPolicy::Proxy`]: replica misses replay their session setup
    /// there and serve the leader's reply.
    pub leader_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:3707".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_cap: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            cache_path: None,
            fsync: FsyncPolicy::Never,
            planner: true,
            max_inflight_per_conn: 0,
            queue_deadline_ms: 0,
            max_wbuf_bytes: 4 << 20,
            role: Role::Single,
            replication: None,
            on_miss: MissPolicy::Compute,
            leader_addr: None,
        }
    }
}

/// State shared by the reactor, the worker callbacks, and shutdown
/// handles.
pub(crate) struct Shared {
    pub(crate) pool: WorkerPool,
    pub(crate) cache: ShardedCache,
    pub(crate) metrics: Arc<Metrics>,
    /// The write-behind persistence flusher (`--cache-path` only).
    pub(crate) store: Option<Flusher>,
    pub(crate) stop: AtomicBool,
    /// Route evaluations through the planner (see [`ServerConfig::planner`]).
    pub(crate) planner: bool,
    /// Per-connection admitted-command cap (see
    /// [`ServerConfig::max_inflight_per_conn`]); `0` = unlimited.
    pub(crate) max_inflight_per_conn: usize,
    /// Queue deadline for pool jobs; `Some` also enables shed-on-full
    /// (see [`ServerConfig::queue_deadline_ms`]).
    pub(crate) queue_deadline: Option<std::time::Duration>,
    /// Per-connection cap on unsent reply bytes; `0` = unbounded (see
    /// [`ServerConfig::max_wbuf_bytes`]).
    pub(crate) wbuf_cap: usize,
    /// Cluster role (see [`ServerConfig::role`]).
    pub(crate) role: Role,
    /// Replica miss policy (see [`ServerConfig::on_miss`]).
    pub(crate) on_miss: MissPolicy,
    /// Leader client address for proxied misses (see
    /// [`ServerConfig::leader_addr`]).
    pub(crate) leader_addr: Option<String>,
}

impl Shared {
    /// Build the shared state; with a `cache_path` configured this
    /// opens (and, if needed, recovers) the persistent store and
    /// warm-starts the cache from it **before** any request is served,
    /// so the first client already sees every surviving entry.
    fn new(cfg: &ServerConfig) -> std::io::Result<Shared> {
        let cache = ShardedCache::new(cfg.cache_capacity, cfg.cache_shards);
        let metrics = Arc::new(Metrics::new());
        metrics.role.store(cfg.role.as_u64(), Ordering::Relaxed);
        // A replica starts unready: it reports 503 on `/healthz` until
        // its applier has connected and declared itself caught up.
        if cfg.role == Role::Replica {
            metrics.replica_ready.store(0, Ordering::Relaxed);
        }
        let store = match &cfg.cache_path {
            // Replicas never persist: the leader owns the only store,
            // and the replicated entries land straight in the cache.
            Some(_) if cfg.role == Role::Replica => {
                eprintln!(
                    "caz-service: --cache-path is ignored under --role replica \
                     (replicas receive the leader's entries over replication)"
                );
                None
            }
            Some(dir) => {
                let (store, entries, report) = Store::open(dir, cfg.fsync)?;
                for entry in entries {
                    let key = CacheKey {
                        text: entry.key,
                        shard_hash: entry.shard_hash,
                    };
                    cache.insert(&key, entry.value);
                }
                metrics
                    .store_loaded_entries
                    .store(report.loaded_entries as u64, Ordering::Relaxed);
                metrics
                    .store_recovered_truncated
                    .store(report.truncated_events, Ordering::Relaxed);
                Some(Flusher::spawn(
                    store,
                    Arc::clone(&metrics),
                    cfg.replication.clone(),
                ))
            }
            None => None,
        };
        Ok(Shared {
            pool: WorkerPool::new(cfg.workers, cfg.queue_cap),
            cache,
            metrics,
            store,
            stop: AtomicBool::new(false),
            planner: cfg.planner,
            max_inflight_per_conn: cfg.max_inflight_per_conn,
            queue_deadline: (cfg.queue_deadline_ms > 0)
                .then(|| std::time::Duration::from_millis(cfg.queue_deadline_ms)),
            wbuf_cap: cfg.max_wbuf_bytes,
            role: cfg.role,
            on_miss: cfg.on_miss,
            leader_addr: cfg.leader_addr.clone(),
        })
    }

    /// The expiry instant new pool jobs should carry under the
    /// configured queue deadline (`None` when admission control is off).
    pub(crate) fn job_deadline(&self) -> Option<Instant> {
        self.queue_deadline.map(|d| Instant::now() + d)
    }

    /// The `/healthz` reply: status code plus a small text body. Ready
    /// means 200 with `ok` as the first line; a replica whose applier
    /// declared it unready (bootstrapping, or lagging past the
    /// configured threshold) answers 503 with `unready`, which tells
    /// routers to stop sending it traffic — it still serves whoever
    /// asks. The remaining lines are the replication position, so a
    /// router (or a human) can see role and lag without parsing the
    /// full `stats` snapshot.
    pub(crate) fn health(&self) -> (u16, String) {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let ready = m.replica_ready.load(Ordering::Relaxed) == 1;
        let mut body = String::from(if ready { "ok\n" } else { "unready\n" });
        let _ = writeln!(body, "role {}", self.role.name());
        let _ = writeln!(
            body,
            "wal_offset {}",
            m.replication_wal_offset.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            body,
            "lag_records {}",
            m.replica_lag_records.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            body,
            "replicas_connected {}",
            m.replicas_connected.load(Ordering::Relaxed)
        );
        (if ready { 200 } else { 503 }, body)
    }
}

/// What a processed line asks the serving loop to do next.
pub(crate) enum Control {
    /// Keep reading commands.
    Continue,
    /// Close this connection.
    QuitConnection,
    /// Stop the whole server (acceptor + drain).
    ShutdownServer,
}

/// The classification of one request line: either finished frames, or
/// a group of pool work. Cache-key canonicalization (a color-refinement
/// pass over the whole database — linear-ish but far from free) happens
/// on the worker, not here, so classification stays cheap enough for
/// the reactor thread. A cache hit is answered here only when the key
/// costs no canonicalization, because the session's memo already holds
/// the canonical form; every other hit is resolved on the worker
/// ([`eval_on_worker`]).
pub(crate) enum Step {
    /// Reply frames ready to write, plus what to do with the connection.
    Done(Vec<WireFrame>, Control),
    /// Pool work: an evaluation, `series`, `eval*` or `plan`/`explain`.
    Jobs(Group),
}

/// The pool work of one command line. Both drivers answer it the same
/// way: the `ready` frames, then each member's [`frame`] (in completion
/// order on a live connection, in member order in batch), then `done n`
/// when `done` is set. Either way the group ends in exactly one final
/// frame, which HTTP response framing counts on.
pub(crate) struct Group {
    /// Frames answered at classification: `eval*` members that fail to
    /// parse.
    pub(crate) ready: Vec<WireFrame>,
    /// One pool job each.
    pub(crate) members: Vec<Member>,
    /// `eval*` only: the job count for the terminal `done n` line.
    pub(crate) done: Option<usize>,
    /// When the line was classified: where every member's latency starts.
    pub(crate) start: Instant,
}

/// One pool job of a [`Group`]: a work item and how its result is framed.
pub(crate) struct Member {
    pub(crate) work: Work,
    pub(crate) framing: Framing,
}

/// What a member runs on its worker.
pub(crate) enum Work {
    /// An evaluation ([`eval_on_worker`]).
    Eval(EvalRequest),
    /// A `plan`/`explain` target ([`plan_on_worker`]).
    Plan(String),
}

/// How a member's result becomes frames (see [`frame`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Framing {
    /// One final `ok`/`err` line.
    Final,
    /// One `eval*` chunk, tagged with the job's index in the line.
    Tagged(usize),
    /// A `series`: one `k`-tagged chunk per row, then `done n`.
    Series,
    /// A `plan` summary line, or an `explain` report as one chunk per
    /// line (`route`, `features`, `engine`, `reject`) plus `done n`.
    Plan { explain: bool },
}

impl Member {
    /// This member's worker closure, evaluating against `session`, a
    /// snapshot taken when the line was classified. A `series` on a live
    /// connection streams through `stream`.
    pub(crate) fn job(
        self,
        shared: Arc<Shared>,
        session: Session,
        start: Instant,
        stream: Option<Stream>,
    ) -> Box<dyn FnOnce() -> JobResult + Send> {
        Box::new(move || match &self.work {
            Work::Eval(ev) => eval_on_worker(&shared, &session, ev, start, stream),
            Work::Plan(target) => {
                let explain = self.framing == Framing::Plan { explain: true };
                plan_on_worker(&shared, &session, target, explain)
            }
        })
    }
}

/// Terminal line of a chunked reply group covering `n` elements.
pub(crate) fn done_frame(n: usize) -> WireFrame {
    WireFrame::Final(WireReply::Ok(format!("done {n}")))
}

/// Classify one protocol line against a session + shared server state:
/// run cheap state mutations inline, answer a single evaluation from the
/// cache when its key is memoized ([`memoized_hit`]), and hand every
/// other evaluation back as pool work (the worker resolves its cache hit
/// or miss). Used identically by the evented reactor and the batch
/// driver.
pub(crate) fn classify(session: &mut Session, shared: &Shared, line: &str) -> Step {
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    if line.trim() == "shutdown" {
        return Step::Done(
            vec![WireFrame::Final(WireReply::Bye)],
            Control::ShutdownServer,
        );
    }
    let finish = |reply, control| Step::Done(vec![WireFrame::Final(reply)], control);
    let request = match Request::parse(line) {
        Ok(Some(r)) => r,
        Ok(None) => return finish(WireReply::Ok(String::new()), Control::Continue),
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return finish(WireReply::Err(e), Control::Continue);
        }
    };
    let one = |work, framing| {
        let members = vec![Member { work, framing }];
        Step::Jobs(Group { ready: Vec::new(), members, done: None, start })
    };
    match request {
        Request::Quit => finish(WireReply::Bye, Control::QuitConnection),
        Request::Stats => {
            // Refresh the queue-depth gauge at snapshot time: it is a
            // point-in-time reading of the pool, not a counter.
            shared
                .metrics
                .queue_depth
                .store(shared.pool.queue_depth(), Ordering::Relaxed);
            finish(
                WireReply::Ok(shared.metrics.snapshot(&shared.cache)),
                Control::Continue,
            )
        }
        Request::Eval(ev) => {
            let framing = match ev.kind {
                EvalKind::Series => Framing::Series,
                _ => Framing::Final,
            };
            match session.in_request(|| memoized_hit(session, shared, &ev)) {
                Some(text) => {
                    let result = Account::new(shared, start, Counted::Cached).finish(Ok(text));
                    Step::Done(frame(framing, result, 0), Control::Continue)
                }
                None => one(Work::Eval(ev), framing),
            }
        }
        Request::Plan { explain, target } => one(Work::Plan(target), Framing::Plan { explain }),
        Request::EvalMulti(raw_jobs) => {
            let mut ready = Vec::new();
            let mut members = Vec::new();
            for (index, raw) in raw_jobs.iter().enumerate() {
                match parse_eval_job(raw) {
                    Err(e) => {
                        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        ready.push(WireFrame::ChunkErr { tag: index.to_string(), payload: e });
                    }
                    Ok(ev) => {
                        let framing = Framing::Tagged(index);
                        members.push(Member { work: Work::Eval(ev), framing });
                    }
                }
            }
            Step::Jobs(Group { ready, members, done: Some(raw_jobs.len()), start })
        }
        other => match session.apply(&other) {
            Ok(Reply::Text(t)) => finish(WireReply::Ok(t), Control::Continue),
            Ok(Reply::Quit) => finish(WireReply::Bye, Control::QuitConnection),
            Err(e) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                finish(WireReply::Err(e), Control::Continue)
            }
        },
    }
}

/// The cached reply to `ev`, when finding it costs no canonicalization:
/// the session's memo already holds `D`'s canonical form for `ev`'s
/// answer tuple, that form is no longer than the longest line the
/// reactor parses, and the cache holds the key. `None` sends `ev` to
/// the pool as usual. This runs on the classifying thread, where a
/// panic would end the process rather than one job, so a panicking
/// probe falls through too and lets the worker isolate and count it.
fn memoized_hit(session: &Session, shared: &Shared, ev: &EvalRequest) -> Option<String> {
    let probe = AssertUnwindSafe(|| {
        let key = session.memoized_cache_key(ev, MAX_LINE_BYTES)?;
        shared.cache.probe(&key)
    });
    std::panic::catch_unwind(probe).ok().flatten()
}

/// Frame one finished member. A `series` frames the rows its stream has
/// not delivered — every row on a cache hit or in batch, none after a
/// streamed miss — then `done n`. An error is one final `err` line, or
/// an `err*` chunk for an `eval*` job; shed and expired members arrive
/// as [`BUSY`](crate::proto::BUSY) errors, so they frame the same way.
pub(crate) fn frame(framing: Framing, result: JobResult, streamed: usize) -> Vec<WireFrame> {
    let report = match (framing, result) {
        (Framing::Tagged(i), Ok(payload)) => {
            return vec![WireFrame::Chunk { tag: i.to_string(), payload }]
        }
        (Framing::Tagged(i), Err(payload)) => {
            return vec![WireFrame::ChunkErr { tag: i.to_string(), payload }]
        }
        (_, Err(e)) => return vec![WireFrame::Final(WireReply::Err(e))],
        (Framing::Final | Framing::Plan { explain: false }, Ok(text)) => {
            return vec![WireFrame::Final(WireReply::Ok(text))]
        }
        (_, Ok(report)) => report,
    };
    // A chunked group: a `series` tags its rows by `k`, an `explain`
    // report each line by its first word.
    let chunk = |(i, line): (usize, &str)| {
        let (tag, payload) = match framing {
            Framing::Series => ((i + 1).to_string(), line),
            _ => {
                let (tag, payload) = line.split_once(' ').unwrap_or((line, ""));
                (tag.to_string(), payload)
            }
        };
        WireFrame::Chunk { tag, payload: payload.to_string() }
    };
    let mut frames: Vec<WireFrame> = report.lines().enumerate().skip(streamed).map(chunk).collect();
    frames.push(done_frame(report.lines().count()));
    frames
}

/// A driver's reading of a member's pool result. A member whose queue
/// deadline expired never ran, so no worker accounted it: count it here
/// (`deadline_expired_total`, and nothing else) and answer `err busy`.
pub(crate) fn unless_expired(shared: &Shared, result: JobResult, outcome: Outcome) -> JobResult {
    if outcome == Outcome::Expired {
        shared.metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
        return Err(crate::proto::BUSY.into());
    }
    result
}

/// How long a proxied miss may spend connecting to / talking to the
/// leader before the replica gives up and computes locally.
const PROXY_TIMEOUT: Duration = Duration::from_secs(10);

/// Forward one cache-missed job to the leader's client port: replay the
/// session's state ([`Session::replay_lines`]), send the job, and serve
/// the leader's final reply. Returns `None` on any transport trouble or protocol surprise
/// — the caller then computes locally, so a dead or unreachable leader
/// degrades a proxying replica to a computing one instead of an erroring
/// one. `series` jobs never proxy: their chunked replies don't fit the
/// one-line exchange.
fn proxy_to_leader(addr: &str, session: &Session, ev: &EvalRequest) -> Option<JobResult> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(PROXY_TIMEOUT)).ok()?;
    stream.set_write_timeout(Some(PROXY_TIMEOUT)).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut stream = stream;
    let mut exchange = |line: &str| -> Option<WireFrame> {
        stream.write_all(line.as_bytes()).ok()?;
        stream.write_all(b"\n").ok()?;
        let mut reply = String::new();
        reader.read_line(&mut reply).ok()?;
        decode_frame(reply.trim_end_matches(['\r', '\n']))
    };
    // Replay the session state. Each line renders state the session
    // holds, so anything but `ok` from the leader is a protocol
    // surprise: bail to local compute rather than serve a reply
    // computed in the wrong state.
    for line in session.replay_lines() {
        match exchange(&line)? {
            WireFrame::Final(WireReply::Ok(_)) => {}
            _ => return None,
        }
    }
    match exchange(&format!("{} {}", ev.kind.name(), ev.args))? {
        WireFrame::Final(WireReply::Ok(text)) => Some(Ok(text)),
        WireFrame::Final(WireReply::Err(e)) => Some(Err(e)),
        _ => None,
    }
}

/// A worker's [`Sink`]: rows go to the live connection, if any; the
/// class census is counted in `series_census_total` and Corollary 3 in
/// `planner_route_corollary3_naive_total`; and enumeration
/// streams estimates between its rows ([`crate::anytime`]) when the job
/// streams, else runs sequentially.
struct WorkerSink<'a> {
    shared: &'a Shared,
    stream: Option<Stream>,
}

impl Sink for WorkerSink<'_> {
    fn row(&mut self, k: usize, row: &str) {
        if let Some(stream) = &self.stream {
            stream.row(k, row)
        }
    }

    fn corollary3(&mut self) {
        self.shared.metrics.route_corollary3.fetch_add(1, Ordering::Relaxed);
    }

    fn rows(
        &mut self,
        engine: SeriesEngine,
        event: Box<dyn SuppEvent>,
        db: &Database,
        k_max: usize,
    ) -> Result<String, String> {
        if engine == SeriesEngine::Census {
            self.shared.metrics.series_census.fetch_add(1, Ordering::Relaxed);
        } else if let Some(stream) = &self.stream {
            return crate::anytime::enumerate(event, db, k_max, stream);
        }
        series_rows(engine, &*event, db, k_max, &mut |k, row| self.row(k, row))
    }
}

/// What a member counts as, decided on its worker (or, for a memoized
/// hit, while classifying).
#[derive(Clone, Copy)]
enum Counted {
    /// Executed on this route: `jobs_executed`, the route's counter and
    /// `eval_latency`.
    Executed(Route),
    /// Answered without executing here, from the cache or the leader:
    /// `jobs_cached` and `cache_hit_latency`.
    Cached,
    /// A `plan`/`explain` report: `plan_requests` only. Planning a job
    /// is not executing it, so the route counters keep summing to
    /// `jobs_executed_total`.
    Plan,
}

/// Accounts one member on its worker when dropped: after the result is
/// known, or while a panic unwinds — the pool converts the panic to an
/// error reply only after the closure's drops have run. So every member
/// that runs is counted exactly once, before its completion can reach a
/// driver, and the per-route counters sum to `jobs_executed_total` even
/// for panicking jobs. Shed and expired members never run; their
/// drivers count them. A memoized hit answered in [`classify`] is
/// accounted the same way, as a cached job, once its lookup hits.
struct Account<'a> {
    shared: &'a Shared,
    start: Instant,
    counted: Counted,
    /// The result is an error a client sees: not
    /// [`CANCELLED`](crate::proto::CANCELLED), which only a vanished
    /// client's job returns.
    failed: bool,
}

impl<'a> Account<'a> {
    fn new(shared: &'a Shared, start: Instant, counted: Counted) -> Account<'a> {
        Account { shared, start, counted, failed: false }
    }

    /// Record the result's error status and hand it back.
    fn finish(mut self, result: JobResult) -> JobResult {
        self.failed = result.as_deref().is_err_and(|e| e != crate::proto::CANCELLED);
        result
    }
}

impl Drop for Account<'_> {
    fn drop(&mut self) {
        let m = &self.shared.metrics;
        let panicked = std::thread::panicking();
        if panicked {
            m.panics.fetch_add(1, Ordering::Relaxed);
        }
        if panicked || self.failed {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        match self.counted {
            Counted::Executed(route) => {
                m.note_route(route);
                m.jobs_executed.fetch_add(1, Ordering::Relaxed);
                m.eval_latency.record(self.start.elapsed());
            }
            Counted::Cached => {
                m.jobs_cached.fetch_add(1, Ordering::Relaxed);
                m.cache_hit_latency.record(self.start.elapsed());
            }
            Counted::Plan => {
                m.plan_requests.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The one evaluation pipeline, run on a worker thread for every job
/// kind: resolve → cache key → hit → proxy → route → execute → store.
/// `stream` is the live connection a `series` job streams its rows to.
pub(crate) fn eval_on_worker(
    shared: &Shared,
    session: &Session,
    ev: &EvalRequest,
    start: Instant,
    stream: Option<Stream>,
) -> JobResult {
    // An unresolvable request still counts as one executed job on the
    // enumeration route, keeping the per-route counters summing to
    // `jobs_executed_total`.
    let mut account = Account::new(shared, start, Counted::Executed(Route::EnumerationFallback));
    let result = session.in_request(|| evaluate(shared, session, ev, stream, &mut account.counted));
    account.finish(result)
}

/// The body of [`eval_on_worker`], noting in `counted` how the job was
/// answered.
fn evaluate(
    shared: &Shared,
    session: &Session,
    ev: &EvalRequest,
    stream: Option<Stream>,
    counted: &mut Counted,
) -> JobResult {
    let job = session.resolve(ev)?;
    let key = job.cache_key();
    if let Some(text) = key.as_ref().and_then(|k| shared.cache.get(k)) {
        *counted = Counted::Cached;
        return Ok(text);
    }
    // A proxying replica asks the leader first: the leader computes,
    // persists, and replicates the entry back, so one miss warms the
    // whole cluster. Counted like a cache hit (the job did not execute
    // locally), plus `replication_proxied_total`.
    let proxy = shared.role == Role::Replica && shared.on_miss == MissPolicy::Proxy;
    let leader = shared.leader_addr.as_deref().filter(|_| proxy && job.series_len.is_none());
    if let Some(result) = leader.and_then(|addr| proxy_to_leader(addr, session, ev)) {
        shared.metrics.replication_proxied.fetch_add(1, Ordering::Relaxed);
        *counted = Counted::Cached;
        // Warm the local cache: replication will bring the same
        // immutable entry anyway.
        if let (Ok(text), Some(k)) = (&result, key.as_ref()) {
            shared.cache.insert(k, text.clone());
        }
        return result;
    }
    // The route is noted before any evaluation work, so a panicking job
    // is still counted on its route.
    let mut sink = WorkerSink { shared, stream };
    let mut note_route = |route| *counted = Counted::Executed(route);
    let result = job.execute(shared.planner, &mut note_route, &mut sink);
    // Publish into the cache and, with persistence on, onto the
    // flusher's write-behind queue — here on the worker, not in the
    // completion handler, so a job whose connection vanished mid-flight
    // still caches and persists its result.
    if let (Ok(text), Some(k)) = (&result, key.as_ref()) {
        shared.cache.insert(k, text.clone());
        if let Some(store) = &shared.store {
            store.append(k, text);
        }
    }
    result
}

/// Run a `plan`/`explain` request on a worker thread: classification
/// includes the data-dependent Theorem-4 naïve check, so it rides the
/// pool like an evaluation — but nothing is evaluated or cached.
pub(crate) fn plan_on_worker(
    shared: &Shared,
    session: &Session,
    target: &str,
    explain: bool,
) -> JobResult {
    let account = Account::new(shared, Instant::now(), Counted::Plan);
    let report = session.plan_for(target).map(|r| r.text(explain));
    account.finish(report)
}

/// A bound, not-yet-running evaluation server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A handle that can stop a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Request shutdown: stop accepting, then drain queued jobs.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the reactor: a throwaway connection makes the listener
        // readable, and the reactor checks the stop flag on every wake.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind the listener and (with `cache_path` set) open the
    /// persistent store, recovering and warm-starting the cache before
    /// any connection is accepted; call [`Server::run`] to start
    /// serving.
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared::new(cfg)?),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metrics registry. The cluster layer updates its
    /// ship counters and gauges through this, so `stats` and
    /// `/healthz` report replication state without a second registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The write side of this server as a read replica: the cluster
    /// applier feeds replicated entries and readiness through the
    /// returned handle while [`Server::run`] serves clients.
    pub fn replica_handle(&self) -> ReplicaHandle {
        ReplicaHandle { shared: Arc::clone(&self.shared) }
    }

    /// A handle to stop this server from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            addr: self.listener.local_addr()?,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Serve until `shutdown` (protocol command or handle): one evented
    /// reactor thread multiplexes the listener and every connection.
    /// Returns after every accepted connection has ended and every
    /// queued job has been drained.
    pub fn run(self) -> std::io::Result<()> {
        let result = Reactor::new(self.listener, Arc::clone(&self.shared))?.run();
        // Drain queued jobs even when the event loop errored out, so no
        // accepted work is silently dropped. Only then shut the flusher
        // down: drained jobs may still queue store appends.
        self.shared.pool.shutdown();
        if let Some(store) = &self.shared.store {
            store.shutdown();
        }
        result
    }
}

/// Run the command language over a batch input, writing wire reply
/// frames per command — the server's offline mode (`caz serve
/// --batch`). The same classification, pool, cache, and metrics
/// machinery is used, so a repetitive batch benefits from the
/// canonical cache exactly like network traffic, and a trailing
/// `stats` command reports on the run. Pool work takes the reactor's
/// path from [`Group`] to frames, blocking instead of streaming:
/// `eval*` lines fan out across the pool (chunks written in index
/// order), and `series` replies use the same chunked framing as the
/// network server, computed as one job.
///
/// Error handling: a line that is not valid UTF-8 yields one `err`
/// reply and the batch continues; a real I/O error flushes every
/// buffered reply before propagating, so partial output is never lost.
pub fn run_batch<R: BufRead, W: Write>(
    input: R,
    output: &mut W,
    cfg: &ServerConfig,
) -> std::io::Result<()> {
    let shared = Arc::new(Shared::new(cfg)?);
    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
    let mut session = Session::new();
    let write_frames = |output: &mut W, frames: &[WireFrame]| -> std::io::Result<()> {
        for f in frames {
            output.write_all(encode_frame(f).as_bytes())?;
            output.write_all(b"\n")?;
        }
        Ok(())
    };
    for line in input.lines() {
        let line = match line {
            Ok(l) => l,
            // A single undecodable line is that line's problem, not the
            // batch's: reply `err` and keep going.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let frame =
                    WireFrame::Final(WireReply::Err("input line is not valid UTF-8".into()));
                write_frames(output, &[frame])?;
                continue;
            }
            // A real I/O error still must not discard replies already
            // buffered: flush first, then propagate.
            Err(e) => {
                output.flush()?;
                return Err(e);
            }
        };
        let control = match classify(&mut session, &shared, &line) {
            Step::Done(frames, control) => {
                write_frames(output, &frames)?;
                control
            }
            Step::Jobs(Group { ready, members, done, start }) => {
                write_frames(output, &ready)?;
                // Fan out across the pool, then frame in member order:
                // batch output is deterministic where a live
                // connection's `eval*` chunks arrive in completion
                // order. Nothing streams, so a `series` frames every row.
                let sessions = std::iter::repeat_n(session.clone(), members.len());
                let submitted: Vec<_> = members
                    .into_iter()
                    .zip(sessions)
                    .map(|(member, session)| {
                        let framing = member.framing;
                        let job = member.job(Arc::clone(&shared), session, start, None);
                        (framing, shared.pool.submit(job))
                    })
                    .collect();
                for (framing, rx) in submitted {
                    let (result, outcome) = match rx {
                        Ok(rx) => rx.recv().unwrap_or_else(|_| {
                            (Err("worker dropped the job".into()), Outcome::Completed)
                        }),
                        Err(e) => (Err(e.into()), Outcome::Completed),
                    };
                    let result = unless_expired(&shared, result, outcome);
                    write_frames(output, &frame(framing, result, 0))?;
                }
                write_frames(output, done.map(done_frame).as_slice())?;
                Control::Continue
            }
        };
        match control {
            Control::Continue => {}
            Control::QuitConnection | Control::ShutdownServer => break,
        }
    }
    output.flush()?;
    shared.pool.shutdown();
    if let Some(store) = &shared.store {
        store.shutdown();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_frame, join_jobs};

    #[test]
    fn a_job_that_panics_is_accounted_once_on_its_route() {
        let shared = Shared::new(&ServerConfig { workers: 1, ..ServerConfig::default() }).unwrap();
        let counted = Counted::Executed(Route::EnumerationFallback);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _account = Account::new(&shared, Instant::now(), counted);
            panic!("a bug in an engine");
        }));
        assert!(unwound.is_err());
        let stats = shared.metrics.snapshot(&shared.cache);
        for want in ["panics_total 1", "errors_total 1", "jobs_executed_total 1",
                     "planner_fallback_total 1"] {
            assert!(stats.lines().any(|l| l == want), "missing {want:?} in {stats}");
        }
    }

    fn batch(cmds: &str) -> Vec<WireFrame> {
        batch_bytes(cmds.as_bytes())
    }

    fn batch_bytes(cmds: &[u8]) -> Vec<WireFrame> {
        batch_cfg(cmds, &ServerConfig { workers: 2, ..ServerConfig::default() })
    }

    fn batch_cfg(cmds: &[u8], cfg: &ServerConfig) -> Vec<WireFrame> {
        let mut out = Vec::new();
        run_batch(cmds, &mut out, cfg).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| decode_frame(l).expect("well-formed reply frame"))
            .collect()
    }

    fn ok_text(frame: &WireFrame) -> &str {
        match frame {
            WireFrame::Final(WireReply::Ok(t)) => t,
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn batch_walkthrough_with_cache_and_stats() {
        let replies = batch(
            "fact R(c1, _x). R(c2, _x).\n\
             query Q := exists u, v. R(u, v)\n\
             mu Q\n\
             mu Q\n\
             stats\n\
             quit\n",
        );
        assert_eq!(replies.len(), 6);
        assert!(ok_text(&replies[0]).contains("2 fact(s)"));
        assert_eq!(ok_text(&replies[2]), "μ(Q, D) = 1");
        assert_eq!(replies[2], replies[3], "repeat identical");
        let stats = ok_text(&replies[4]);
        assert!(stats.contains("cache_hits 1"), "{stats}");
        assert!(stats.contains("jobs_executed_total 1"), "{stats}");
        assert!(stats.contains("jobs_cached_total 1"), "{stats}");
        assert!(stats.contains("eval_latency_count 1"), "{stats}");
        assert!(stats.contains("cache_hit_latency_count 1"), "{stats}");
        assert_eq!(replies[5], WireFrame::Final(WireReply::Bye));
    }

    #[test]
    fn batch_errors_are_replies_not_aborts() {
        let replies = batch("mu Nope\nhelp\n");
        assert!(matches!(&replies[0], WireFrame::Final(WireReply::Err(e)) if e.contains("Nope")));
        assert!(ok_text(&replies[1]).contains("commands"));
    }

    #[test]
    fn batch_stops_at_shutdown() {
        let replies = batch("shutdown\nhelp\n");
        assert_eq!(replies, vec![WireFrame::Final(WireReply::Bye)]);
    }

    #[test]
    fn batch_invalid_utf8_line_is_an_error_reply_not_an_abort() {
        // Three lines; the middle one is invalid UTF-8. The batch must
        // answer all three (bugfix: it used to abort, discarding every
        // buffered reply).
        let mut input = Vec::new();
        input.extend_from_slice(b"help\n");
        input.extend_from_slice(&[0xff, 0xfe, b'\n']);
        input.extend_from_slice(b"help\n");
        let replies = batch_bytes(&input);
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert!(ok_text(&replies[0]).contains("commands"));
        assert!(
            matches!(&replies[1], WireFrame::Final(WireReply::Err(e)) if e.contains("UTF-8")),
            "{replies:?}"
        );
        assert!(ok_text(&replies[2]).contains("commands"));
    }

    /// A reader that yields some good lines and then a hard I/O error.
    struct FailingReader {
        data: &'static [u8],
        pos: usize,
    }

    impl std::io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::other("disk on fire"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn batch_flushes_buffered_replies_before_propagating_io_errors() {
        // The bugfix under test: replies produced before a mid-batch
        // I/O error must reach the output writer, not be discarded.
        let reader = std::io::BufReader::new(FailingReader {
            data: b"help\nhelp\n",
            pos: 0,
        });
        // A writer that only forwards on flush, so we can tell whether
        // run_batch flushed before erroring out.
        struct FlushTracking {
            buffered: Vec<u8>,
            flushed: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
        }
        impl Write for FlushTracking {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.buffered.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushed.borrow_mut().extend_from_slice(&self.buffered);
                self.buffered.clear();
                Ok(())
            }
        }
        let flushed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut out = FlushTracking { buffered: Vec::new(), flushed: Rc::clone(&flushed) };
        use std::rc::Rc;
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let err = run_batch(reader, &mut out, &cfg).unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
        let text = String::from_utf8(flushed.borrow().clone()).unwrap();
        assert_eq!(
            text.lines().count(),
            2,
            "both replies must be flushed before the error: {text:?}"
        );
        assert!(text.contains("commands"));
    }

    #[test]
    fn batch_eval_star_fans_out_with_tagged_chunks() {
        let line = format!(
            "eval* {}",
            join_jobs(["mu Q", "mu Nope", "certain Q", "fact R(b)."])
        );
        let replies = batch(&format!(
            "fact R(a, _x).\nquery Q := exists u, v. R(u, v)\n{line}\n"
        ));
        // 2 setup replies + 4 chunks + 1 done.
        assert_eq!(replies.len(), 7, "{replies:?}");
        let chunk = |tag: &str| {
            replies[2..6]
                .iter()
                .find(|f| matches!(f, WireFrame::Chunk { tag: t, .. } | WireFrame::ChunkErr { tag: t, .. } if t == tag))
                .unwrap_or_else(|| panic!("no chunk tagged {tag}: {replies:?}"))
        };
        assert!(
            matches!(chunk("0"), WireFrame::Chunk { payload, .. } if payload == "μ(Q, D) = 1")
        );
        assert!(matches!(chunk("1"), WireFrame::ChunkErr { payload, .. } if payload.contains("Nope")));
        assert!(matches!(chunk("2"), WireFrame::Chunk { .. }));
        assert!(
            matches!(chunk("3"), WireFrame::ChunkErr { payload, .. } if payload.contains("read-only"))
        );
        assert_eq!(replies[6], done_frame(4));
    }

    #[test]
    fn out_of_range_constraint_columns_are_errors_not_panics() {
        // Binary R and S: each constraint names a column one of them
        // lacks, which every `cond` engine would index past.
        let constraints = [
            "fd R: 1 -> 5",
            "key R[3]",
            "ind R[3] <= S[1]",
            "ind R[1] <= S[4]",
            "fk R[3] -> S[1]",
            "fk R[1] -> S[4]",
        ];
        for planner in [true, false] {
            let cfg = ServerConfig { workers: 2, planner, ..ServerConfig::default() };
            for constraint in constraints {
                let cmds = format!(
                    "fact R(a, _x). R(_x, b). S(a, _y). S(b, c).\n\
                     query Q := exists u, v. R(u, v)\n\
                     constraint {constraint}\n\
                     cond Q\n\
                     stats\n"
                );
                let replies = batch_cfg(cmds.as_bytes(), &cfg);
                let context = format!("{constraint} (planner {planner}): {replies:?}");
                assert!(
                    matches!(&replies[3], WireFrame::Final(WireReply::Err(e))
                        if e.contains("column") && !e.contains("panicked")),
                    "{context}"
                );
                assert!(ok_text(&replies[4]).contains("\npanics_total 0\n"), "{context}");
            }
        }
    }

    #[test]
    fn batch_series_uses_chunked_frames() {
        let replies = batch(
            "fact R(c1, _x). R(c2, _y).\n\
             query Col := exists p. R(c1, p) & R(c2, p)\n\
             series Col 3\n\
             series Col 3\n",
        );
        // 2 setup + (3 chunks + done) × 2 — the second one from cache.
        assert_eq!(replies.len(), 10, "{replies:?}");
        for (i, frame) in replies[2..5].iter().enumerate() {
            let WireFrame::Chunk { tag, payload } = frame else {
                panic!("expected chunk: {frame:?}")
            };
            assert_eq!(tag, &(i + 1).to_string());
            assert!(payload.starts_with(&format!("k=  {}", i + 1)), "{payload}");
        }
        assert_eq!(replies[5], done_frame(3));
        assert_eq!(replies[2..6], replies[6..10], "cache hit replays the same chunks");
    }

    #[test]
    fn a_proxied_miss_replays_a_database_longer_than_one_line() {
        // 60,000 ground facts render to ~1.3 MB: more than one line.
        let mut session = Session::new();
        for chunk in 0..6 {
            let facts: Vec<String> = (chunk * 10_000..(chunk + 1) * 10_000)
                .map(|i| format!("E(k{i:06}, k{:06}).", i + 1))
                .collect();
            session.execute(&format!("fact {}", facts.join(" "))).unwrap();
        }
        session.execute("fact R(k000000, _x). R(_x, _y). R(_y, _x).").unwrap();
        // Unary: `naive` tries every constant of `D` as the answer.
        session.execute("query Q(u) := exists v. R(u, v) & R(v, u)").unwrap();
        let lines = session.replay_lines();
        let facts = lines.iter().filter(|l| l.starts_with("fact ")).count();
        assert!(facts >= 2, "{facts} fact line(s)");
        assert!(lines.iter().all(|l| l.len() <= MAX_LINE_BYTES));

        let leader = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = leader.local_addr().unwrap().to_string();
        let stop = leader.shutdown_handle().unwrap();
        let running = std::thread::spawn(move || leader.run());
        let ev = EvalRequest { kind: EvalKind::Naive, args: "Q".into() };
        let proxied = proxy_to_leader(&addr, &session, &ev);
        stop.shutdown();
        running.join().unwrap().unwrap();
        let local = session.eval_planned(&ev, &mut |_| {});
        assert_eq!(local.as_deref(), Ok("{(⊥x), (⊥y)}"));
        assert_eq!(proxied, Some(local));
    }
}
