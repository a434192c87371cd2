//! The `service` workload: an open-loop load generator driving a live
//! `caz-service` server through its admission-control knobs.
//!
//! Closed-loop clients (send, wait, send) slow themselves down exactly
//! when the server slows down, hiding overload — the coordinated-
//! omission trap. This harness is **open-loop**: a deterministic,
//! seeded schedule fixes every request's send time *before* the run,
//! the dispatcher releases requests on that clock regardless of how
//! the server is doing, and each latency is measured from the
//! *scheduled* send time, so queueing the server inflicts on late
//! requests is charged to the server, not silently absorbed.
//!
//! The job mix spans the planner's route classes: each connection is
//! pinned to one of four catalogs — Theorem-1 direct `mu` (routed,
//! sub-millisecond, cache-friendly), Theorem-5 chase-then-measure
//! `cond`, Theorem-8 UCQ `compare`, and an enumeration-fallback cliff
//! of `series` jobs whose μᵏ sweeps cost tens of milliseconds each
//! (one class census; hundreds when enumerated). Job ranks are
//! zipf-distributed, so hot ranks re-hit the result cache while the
//! tail keeps missing; seeded churn events drop and re-dial connections
//! mid-step.
//!
//! Each offered-QPS step reports client-observed counts (ok / busy /
//! error / lost), HDR-style latency quantiles (p50/p90/p99/p999, ~3%
//! relative error), time-to-first-chunk quantiles for streamed replies
//! (the cliff's `series` groups — the latency anytime serving attacks),
//! achieved QPS, and the server's own stats deltas
//! (`jobs_shed_total`, `deadline_expired_total`, …) so client and
//! server accounts of the same overload can be reconciled.
//!
//! The same schedule can be driven over either wire protocol
//! ([`Transport`]): the raw line protocol, HTTP/1.1 keep-alive (every
//! job a pipelined `POST /eval`, chunks read incrementally so
//! time-to-first-chunk stays honest), or HTTP per-request (a fresh
//! `Connection: close` dial per job, shipping the session setup with
//! the job — the no-keep-alive tax E23 measures).

use caz_service::http::{format_request, read_response};
use caz_service::proto::{decode_frame, WireFrame, WireReply, BUSY};
use caz_service::{Server, ServerConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which wire protocol the load generator speaks to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// The raw line protocol (one command line per job).
    Line,
    /// HTTP/1.1 over one keep-alive connection per client: every job is
    /// a pipelined `POST /eval`, every reply group one chunked response.
    HttpKeepAlive,
    /// HTTP/1.1 with a fresh `Connection: close` dial per job; the
    /// session setup rides along in the request body since no state
    /// survives between requests.
    HttpPerRequest,
}

impl Transport {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Line => "line",
            Transport::HttpKeepAlive => "http-keep-alive",
            Transport::HttpPerRequest => "http-per-request",
        }
    }
}

/// Knobs for one load run: the client side (connections, offered-QPS
/// steps, churn, zipf mix) and the server it targets (workers, queue,
/// admission control, cache).
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Seed for the schedule, the zipf draws, and the churn events.
    pub seed: u64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Offered-QPS steps, run in order.
    pub steps: Vec<u64>,
    /// Duration of each step in milliseconds.
    pub step_ms: u64,
    /// Per-event probability that the event reconnects its connection
    /// instead of sending a job.
    pub churn: f64,
    /// Distinct job ranks per route class (the zipf domain).
    pub ranks: usize,
    /// Zipf exponent for the rank distribution.
    pub zipf_s: f64,
    /// Server worker threads.
    pub workers: usize,
    /// Server pool queue capacity.
    pub queue_cap: usize,
    /// Server `--queue-deadline-ms` (0 disables shedding).
    pub queue_deadline_ms: u64,
    /// Server `--max-inflight-per-conn` (0 = unlimited).
    pub max_inflight_per_conn: usize,
    /// Server result-cache capacity.
    pub cache_capacity: usize,
    /// Wire protocol the clients speak.
    pub transport: Transport,
}

impl LoadConfig {
    /// The full benchmark: four offered-QPS steps from comfortable to
    /// well past capacity, a two-worker server with a shallow queue
    /// and a 40ms queue deadline. ~10s wall-clock in release.
    pub fn standard(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            connections: 16,
            steps: vec![50, 100, 200, 400],
            step_ms: 2_000,
            churn: 0.02,
            ranks: 32,
            zipf_s: 1.1,
            workers: 2,
            queue_cap: 4,
            queue_deadline_ms: 40,
            max_inflight_per_conn: 64,
            cache_capacity: 64,
            transport: Transport::Line,
        }
    }

    /// A ~4s smoke run for CI: one under-capacity step and one far
    /// over capacity of a deliberately tiny server (one worker, queue
    /// of 2), so the over-capacity step must shed.
    pub fn smoke(seed: u64) -> LoadConfig {
        LoadConfig {
            seed,
            connections: 8,
            steps: vec![25, 400],
            step_ms: 1_200,
            churn: 0.05,
            ranks: 16,
            zipf_s: 1.1,
            workers: 1,
            queue_cap: 2,
            queue_deadline_ms: 25,
            max_inflight_per_conn: 32,
            cache_capacity: 16,
            transport: Transport::Line,
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: self.workers,
            queue_cap: self.queue_cap,
            queue_deadline_ms: self.queue_deadline_ms,
            max_inflight_per_conn: self.max_inflight_per_conn,
            cache_capacity: self.cache_capacity,
            ..ServerConfig::default()
        }
    }
}

// ---------------------------------------------------------------------
// Route-class catalogs
// ---------------------------------------------------------------------

/// One route class's database and job vocabulary: `setup` lines loaded
/// once per connection (and again after churn), and one job line per
/// rank.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// The planner route class the catalog exercises.
    pub name: &'static str,
    /// Session-setup command lines (facts, constraints, queries).
    pub setup: Vec<String>,
    /// Job command lines, indexed by rank (hot rank 0 first).
    pub jobs: Vec<String>,
}

/// The catalog for connection class `class` (taken modulo 4) with
/// `ranks` job ranks. Distinct ranks use distinct query definitions,
/// so they occupy distinct result-cache entries; the zipf mix then
/// controls the hit rate.
pub fn catalog(class: usize, ranks: usize) -> Catalog {
    match class % 4 {
        0 => {
            // Theorem 1: positive-existential mu over a 6-null db —
            // the planner routes every job to one naïve evaluation.
            let mut setup = vec![
                "fact R(c0,_n0). R(c1,_n1). R(c2,_n2). R(c3,_n3). R(c4,_n4). R(c5,_n5)."
                    .to_string(),
            ];
            let mut jobs = Vec::with_capacity(ranks);
            for r in 0..ranks {
                let (i, j) = (r % 6, (r / 6) % 6);
                setup.push(format!("query A{r} := exists p. R(c{i}, p) & R(c{j}, p)"));
                jobs.push(format!("mu A{r}"));
            }
            Catalog { name: "theorem1-direct", setup, jobs }
        }
        1 => {
            // Theorem 5: an FD violated naïvely; `cond` chases first.
            let mut setup = vec![
                "fact R(c0,_a0). R(c0,_b0). R(c1,_a1). R(c1,_b1). R(c2,_a2). R(c2,_b2)."
                    .to_string(),
                "constraint fd R: 1 -> 2".to_string(),
            ];
            let mut jobs = Vec::with_capacity(ranks);
            for r in 0..ranks {
                let (i, j) = (r % 3, (r / 3) % 3);
                setup.push(format!("query C{r} := exists p. R(c{i}, p) & R(c{j}, p)"));
                jobs.push(format!("cond C{r}"));
            }
            Catalog { name: "theorem5-chase-then-measure", setup, jobs }
        }
        2 => {
            // Theorem 8: UCQ comparisons against a guaranteed hub.
            let setup = vec![
                "fact R(c0, hub). R(c1, _u0). R(_u1, c2). R(c3, _u2). R(_u3, c4). R(c5, _u4)."
                    .to_string(),
                "query Du(u) := exists v. R(u, v) | R(v, u)".to_string(),
            ];
            let jobs = (0..ranks)
                .map(|r| format!("compare Du (c{}) (c0)", 1 + r % 5))
                .collect();
            Catalog { name: "theorem8-ucq", setup, jobs }
        }
        _ => {
            // Enumeration-fallback cliff: `series` takes the fallback
            // route. With the planner on, one class census answers
            // μ¹..μᵏ over five nulls in tens of milliseconds whatever
            // k is; enumerated, the job costs tens to hundreds of
            // milliseconds as k climbs from 6 to 9.
            let mut setup = vec![
                "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).".to_string(),
            ];
            let mut jobs = Vec::with_capacity(ranks);
            for r in 0..ranks {
                let (i, j) = (r % 5, (r / 5) % 5);
                setup.push(format!("query Z{r} := exists p. R(c{i}, p) & R(c{j}, p)"));
                jobs.push(format!("series Z{r} {}", 6 + r % 4));
            }
            Catalog { name: "enumeration-cliff", setup, jobs }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic schedule
// ---------------------------------------------------------------------

/// What one scheduled event does to its connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send the job of this rank from the connection's catalog.
    Job(usize),
    /// Drop the connection and re-dial it (outstanding replies are
    /// counted as lost).
    Churn,
}

/// One pre-planned event of a step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Scheduled send time, microseconds from the step's start.
    pub at_us: u64,
    /// Target connection index.
    pub conn: usize,
    /// What to do.
    pub action: Action,
}

/// The pre-planned events of one offered-QPS step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepPlan {
    /// The step's offered queries per second.
    pub offered_qps: u64,
    /// Events in send order.
    pub events: Vec<Event>,
}

/// Cumulative zipf distribution over `n` ranks with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn sample_zipf(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u = rng.random_f64();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Generate the whole run's schedule from the config — a pure function
/// of the config, so the same seed always produces the identical
/// event-for-event plan (asserted by the determinism test and the
/// `verify.sh` smoke stage's fixed seed).
pub fn plan(cfg: &LoadConfig) -> Vec<StepPlan> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cdf = zipf_cdf(cfg.ranks, cfg.zipf_s);
    cfg.steps
        .iter()
        .map(|&qps| {
            let interval_us = 1_000_000 / qps.max(1);
            let count = cfg.step_ms * 1_000 / interval_us;
            let events = (0..count)
                .map(|k| {
                    let conn = rng.random_range(0..cfg.connections);
                    let action = if rng.random_bool(cfg.churn) {
                        Action::Churn
                    } else {
                        Action::Job(sample_zipf(&mut rng, &cdf))
                    };
                    Event { at_us: k * interval_us, conn, action }
                })
                .collect();
            StepPlan { offered_qps: qps, events }
        })
        .collect()
}

// ---------------------------------------------------------------------
// HDR-style latency histogram
// ---------------------------------------------------------------------

/// A log-linear histogram of microsecond latencies in the spirit of
/// HdrHistogram: exact below 64µs, then 32 sub-buckets per power of
/// two (≤ ~3.2% relative error), constant memory, O(1) record.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

const HIST_SUB: u64 = 32;
const HIST_GROUPS: u64 = 40; // covers > 12 days in µs

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; (2 * HIST_SUB + HIST_GROUPS * HIST_SUB) as usize],
            count: 0,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < 2 * HIST_SUB {
            return value as usize;
        }
        // Highest set bit ≥ 6; shift so the value lands in [32, 64).
        // Group 1 then starts right after the exact range: idx 64..96.
        let group = (63 - value.leading_zeros() as u64) - 5;
        let sub = value >> group; // in [32, 64)
        let idx = HIST_SUB * group + sub;
        (idx as usize).min(2 * HIST_SUB as usize + (HIST_GROUPS * HIST_SUB) as usize - 1)
    }

    /// The representative (upper-bound) value of a bucket.
    fn value_of(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < 2 * HIST_SUB {
            return idx;
        }
        let group = (idx - 2 * HIST_SUB) / HIST_SUB + 1;
        let sub = (idx - 2 * HIST_SUB) % HIST_SUB + HIST_SUB;
        ((sub + 1) << group) - 1
    }

    /// Record one latency in microseconds.
    pub fn record(&mut self, value_us: u64) {
        self.counts[Self::index(value_us)] += 1;
        self.count += 1;
        self.max = self.max.max(value_us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` (0 on an empty histogram);
    /// `q = 1` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------
// Run accounting
// ---------------------------------------------------------------------

struct StepAcc {
    sent: AtomicU64,
    ok: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    lost: AtomicU64,
    hist: Mutex<Histogram>,
    /// Time from scheduled send to the *first chunk* of a streamed
    /// reply group — only chunked replies (the cliff catalog's `series`
    /// jobs) land here. This is the latency the anytime path attacks:
    /// an approx estimate streams within one sampling batch, where the
    /// sequential path is silent until μ¹ completes.
    ttfc: Mutex<Histogram>,
}

impl StepAcc {
    fn new() -> StepAcc {
        StepAcc {
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            hist: Mutex::new(Histogram::new()),
            ttfc: Mutex::new(Histogram::new()),
        }
    }
}

struct RunAcc {
    steps: Vec<StepAcc>,
    malformed: AtomicU64,
}

/// What one offered-QPS step measured: client-observed outcomes,
/// scheduled-send latency quantiles over the ok replies, and the
/// server's stats-counter deltas across the step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The step's offered queries per second.
    pub offered_qps: u64,
    /// Job lines actually written.
    pub sent: u64,
    /// Churn (reconnect) events executed.
    pub churns: u64,
    /// Jobs answered `ok`.
    pub ok: u64,
    /// Jobs declined with `busy` (shed, expired, or over-cap).
    pub busy: u64,
    /// Jobs answered with a non-busy error (must be 0 on a healthy run).
    pub errors: u64,
    /// Jobs whose reply was lost to a churned or closed connection.
    pub lost: u64,
    /// `ok / step duration` — completed throughput.
    pub achieved_qps: f64,
    /// Median ok-reply latency from scheduled send, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, microseconds.
    pub p999_us: u64,
    /// Worst ok-reply latency, microseconds.
    pub max_us: u64,
    /// Streamed reply groups that produced at least one chunk (the
    /// population of the `ttfc_*` quantiles below).
    pub ttfc_count: u64,
    /// Median time from scheduled send to the first chunk of a
    /// streamed reply, microseconds. With anytime serving on, an
    /// `approx` estimate bounds this by one sampling batch; the
    /// sequential path waits for the full μ¹ row.
    pub ttfc_p50_us: u64,
    /// 99th-percentile time to first chunk, microseconds.
    pub ttfc_p99_us: u64,
    /// Worst time to first chunk, microseconds.
    pub ttfc_max_us: u64,
    /// Server `jobs_shed_total` delta across the step.
    pub jobs_shed: u64,
    /// Server `deadline_expired_total` delta across the step.
    pub deadline_expired: u64,
    /// Server `conn_inflight_rejected_total` delta across the step.
    pub conn_inflight_rejected: u64,
    /// Server `jobs_executed_total` delta across the step.
    pub jobs_executed: u64,
    /// Server `jobs_cached_total` delta across the step.
    pub jobs_cached: u64,
}

/// The whole run's report.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Wire protocol the run used.
    pub transport: Transport,
    /// Schedule seed.
    pub seed: u64,
    /// Client connections.
    pub connections: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Server pool queue capacity.
    pub queue_cap: usize,
    /// Server queue deadline in milliseconds.
    pub queue_deadline_ms: u64,
    /// Server per-connection in-flight cap.
    pub max_inflight_per_conn: usize,
    /// Malformed reply lines observed anywhere in the run.
    pub malformed: u64,
    /// Per-step measurements.
    pub steps: Vec<StepReport>,
}

impl LoadReport {
    /// Render as JSON (std-only workspace: encoded by hand).
    pub fn to_json(&self) -> String {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"offered_qps\": {}, \"sent\": {}, \"churns\": {}, \"ok\": {}, \
                     \"busy\": {}, \"errors\": {}, \"lost\": {}, \"achieved_qps\": {:.1}, \
                     \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
                     \"max_us\": {}, \"ttfc_count\": {}, \"ttfc_p50_us\": {}, \
                     \"ttfc_p99_us\": {}, \"ttfc_max_us\": {}, \"jobs_shed\": {}, \
                     \"deadline_expired\": {}, \"conn_inflight_rejected\": {}, \
                     \"jobs_executed\": {}, \"jobs_cached\": {} }}",
                    s.offered_qps,
                    s.sent,
                    s.churns,
                    s.ok,
                    s.busy,
                    s.errors,
                    s.lost,
                    s.achieved_qps,
                    s.p50_us,
                    s.p90_us,
                    s.p99_us,
                    s.p999_us,
                    s.max_us,
                    s.ttfc_count,
                    s.ttfc_p50_us,
                    s.ttfc_p99_us,
                    s.ttfc_max_us,
                    s.jobs_shed,
                    s.deadline_expired,
                    s.conn_inflight_rejected,
                    s.jobs_executed,
                    s.jobs_cached
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"service\",\n  \"transport\": \"{}\",\n  \"seed\": {},\n  \
             \"connections\": {},\n  \
             \"workers\": {},\n  \"queue_cap\": {},\n  \"queue_deadline_ms\": {},\n  \
             \"max_inflight_per_conn\": {},\n  \"malformed\": {},\n  \"steps\": [\n{}\n  ]\n}}",
            self.transport.label(),
            self.seed,
            self.connections,
            self.workers,
            self.queue_cap,
            self.queue_deadline_ms,
            self.max_inflight_per_conn,
            self.malformed,
            steps.join(",\n")
        )
    }
}

// ---------------------------------------------------------------------
// Connection actors
// ---------------------------------------------------------------------

struct Entry {
    step: usize,
    scheduled: Instant,
    /// A chunk of this entry's reply group has been seen (its
    /// time-to-first-chunk is already recorded).
    saw_chunk: bool,
}

enum Cmd {
    Job { line: String, step: usize, scheduled: Instant },
    Churn,
    Quit,
}

/// Dial and run the session setup synchronously, so the reader thread
/// only ever sees job replies.
fn connect_setup(addr: SocketAddr, setup: &[String]) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut w = &stream;
    for line in setup {
        w.write_all(format!("{line}\n").as_bytes()).expect("write setup");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read setup reply");
        assert!(
            reply.starts_with("ok"),
            "setup line {line:?} rejected: {reply:?}"
        );
    }
    (stream, reader)
}

/// Account one reply-frame line against the oldest outstanding entry —
/// shared by the line-protocol reader and both HTTP paths (where each
/// de-chunked body line is wire-identical to a line-protocol frame).
fn account_frame(line: &str, outstanding: &Mutex<VecDeque<Entry>>, acc: &RunAcc) {
    match decode_frame(line) {
        None => {
            acc.malformed.fetch_add(1, Ordering::Relaxed);
        }
        // Chunk lines (series rows, anytime approx estimates) are not
        // terminal replies, but the first one closes the
        // time-to-first-chunk window: replies arrive in command order,
        // so a chunk belongs to the oldest outstanding entry.
        Some(WireFrame::Chunk { .. } | WireFrame::ChunkErr { .. }) => {
            let mut outstanding = outstanding.lock().unwrap();
            if let Some(e) = outstanding.front_mut() {
                if !e.saw_chunk {
                    e.saw_chunk = true;
                    let us = e.scheduled.elapsed().as_micros() as u64;
                    acc.steps[e.step].ttfc.lock().unwrap().record(us);
                }
            }
        }
        Some(WireFrame::Final(reply)) => {
            let Some(e) = outstanding.lock().unwrap().pop_front() else {
                acc.malformed.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let step = &acc.steps[e.step];
            match reply {
                WireReply::Ok(_) => {
                    step.ok.fetch_add(1, Ordering::Relaxed);
                    let us = e.scheduled.elapsed().as_micros() as u64;
                    step.hist.lock().unwrap().record(us);
                }
                WireReply::Err(p) if p == BUSY => {
                    step.busy.fetch_add(1, Ordering::Relaxed);
                }
                WireReply::Err(_) | WireReply::Bye => {
                    step.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn spawn_reader(
    mut reader: BufReader<TcpStream>,
    outstanding: Arc<Mutex<VecDeque<Entry>>>,
    acc: Arc<RunAcc>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            account_frame(line.trim_end_matches('\n'), &outstanding, &acc);
        }
        // EOF (churn or run end): replies still owed are lost.
        for e in outstanding.lock().unwrap().drain(..) {
            acc.steps[e.step].lost.fetch_add(1, Ordering::Relaxed);
        }
    })
}

/// Read one HTTP response incrementally, invoking `on_line` for every
/// reply-frame line as its chunk arrives off the wire — chunk-at-a-time
/// rather than via a whole-body read, so time-to-first-chunk over HTTP
/// measures the stream, not the buffering. Returns whether the server
/// announced `Connection: close`.
fn read_http_frames<F: FnMut(&str)>(
    reader: &mut BufReader<TcpStream>,
    mut on_line: F,
) -> std::io::Result<bool> {
    use std::io::{Error, ErrorKind, Read};
    let bad = |what: &str| Error::new(ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(Error::new(ErrorKind::UnexpectedEof, "no status line"));
    }
    if !line.starts_with("HTTP/1.1 ") {
        return Err(bad("malformed status line"));
    }
    let mut chunked = false;
    let mut content_length = 0usize;
    let mut close = false;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "truncated headers"));
        }
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "content-length" => {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if chunked {
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "truncated chunks"));
            }
            let size =
                usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            // Chunk data plus its CRLF; the last chunk's "data" is the
            // bare CRLF terminating the body (no trailers).
            let mut data = vec![0u8; size + 2];
            reader.read_exact(&mut data)?;
            if size == 0 {
                break;
            }
            data.truncate(size);
            let text = std::str::from_utf8(&data).map_err(|_| bad("chunk not utf-8"))?;
            on_line(text.trim_end_matches('\n'));
        }
    } else {
        let mut data = vec![0u8; content_length];
        reader.read_exact(&mut data)?;
        let text = std::str::from_utf8(&data).map_err(|_| bad("body not utf-8"))?;
        for l in text.lines() {
            on_line(l);
        }
    }
    Ok(close)
}

/// The keep-alive HTTP reader: one chunked response per job, frames
/// accounted exactly like line-protocol replies.
fn spawn_http_reader(
    mut reader: BufReader<TcpStream>,
    outstanding: Arc<Mutex<VecDeque<Entry>>>,
    acc: Arc<RunAcc>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        loop {
            match read_http_frames(&mut reader, |l| account_frame(l, &outstanding, &acc)) {
                Ok(false) => {}
                Ok(true) => break,
                Err(e) => {
                    if e.kind() == std::io::ErrorKind::InvalidData {
                        acc.malformed.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
            }
        }
        for e in outstanding.lock().unwrap().drain(..) {
            acc.steps[e.step].lost.fetch_add(1, Ordering::Relaxed);
        }
    })
}

/// Dial and run the session setup over HTTP: one `POST /eval` carrying
/// every setup line, answered by one multi-group response.
fn connect_setup_http(addr: SocketAddr, setup: &[String]) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut body = setup.join("\n");
    body.push('\n');
    (&stream)
        .write_all(&format_request("POST", "/eval", &[], body.as_bytes()))
        .expect("write setup");
    let resp = read_response(&mut reader).expect("read setup response");
    assert_eq!(resp.status, 200, "setup rejected");
    let text = String::from_utf8(resp.body).expect("setup body utf-8");
    for line in text.lines() {
        assert!(line.starts_with("ok"), "setup line rejected: {line:?}");
    }
    (stream, reader)
}

/// The writer half of one connection: owns the socket, performs churn
/// re-dials, and never blocks the dispatcher (pacing survives a slow
/// or flow-controlled connection — that latency lands in the
/// measurements instead of warping the schedule).
fn conn_writer(
    addr: SocketAddr,
    setup: Vec<String>,
    rx: mpsc::Receiver<Cmd>,
    outstanding: Arc<Mutex<VecDeque<Entry>>>,
    acc: Arc<RunAcc>,
    transport: Transport,
) {
    if transport == Transport::HttpPerRequest {
        return per_request_writer(addr, setup, rx, outstanding, acc);
    }
    let connect = |setup: &[String]| match transport {
        Transport::Line => connect_setup(addr, setup),
        _ => connect_setup_http(addr, setup),
    };
    let spawn = |r, out, acc| match transport {
        Transport::Line => spawn_reader(r, out, acc),
        _ => spawn_http_reader(r, out, acc),
    };
    let (mut stream, reader) = connect(&setup);
    let mut reader_join = spawn(reader, outstanding.clone(), acc.clone());
    for cmd in rx {
        match cmd {
            Cmd::Job { line, step, scheduled } => {
                outstanding
                    .lock()
                    .unwrap()
                    .push_back(Entry { step, scheduled, saw_chunk: false });
                acc.steps[step].sent.fetch_add(1, Ordering::Relaxed);
                // A failed write means the server closed on us; the
                // reader's EOF pass will account the entry as lost.
                let _ = match transport {
                    Transport::Line => stream.write_all(format!("{line}\n").as_bytes()),
                    _ => stream.write_all(&format_request(
                        "POST",
                        "/eval",
                        &[],
                        format!("{line}\n").as_bytes(),
                    )),
                };
            }
            Cmd::Churn => {
                let _ = stream.shutdown(Shutdown::Both);
                let _ = reader_join.join();
                let (s, r) = connect(&setup);
                stream = s;
                reader_join = spawn(r, outstanding.clone(), acc.clone());
            }
            Cmd::Quit => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader_join.join();
}

/// The per-request HTTP writer: every job dials a fresh connection and
/// ships the whole session setup with the job in one `Connection:
/// close` request — connect, setup replay, and teardown are all on the
/// job's critical path, which is precisely the tax being measured.
/// Jobs on one connection slot serialize (a pool of non-keep-alive
/// clients); the open-loop clock still charges any resulting lateness
/// to the transport because latency runs from the scheduled send time.
fn per_request_writer(
    addr: SocketAddr,
    setup: Vec<String>,
    rx: mpsc::Receiver<Cmd>,
    outstanding: Arc<Mutex<VecDeque<Entry>>>,
    acc: Arc<RunAcc>,
) {
    for cmd in rx {
        match cmd {
            Cmd::Job { line, step, scheduled } => {
                acc.steps[step].sent.fetch_add(1, Ordering::Relaxed);
                outstanding
                    .lock()
                    .unwrap()
                    .push_back(Entry { step, scheduled, saw_chunk: false });
                if run_one_request(addr, &setup, &line, &outstanding, &acc).is_err() {
                    // Connection-level failure: the reply is lost.
                    if let Some(e) = outstanding.lock().unwrap().pop_front() {
                        acc.steps[e.step].lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // No connection outlives a request, so churn is a no-op.
            Cmd::Churn => {}
            Cmd::Quit => break,
        }
    }
}

fn run_one_request(
    addr: SocketAddr,
    setup: &[String],
    job: &str,
    outstanding: &Mutex<VecDeque<Entry>>,
    acc: &RunAcc,
) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut body = setup.join("\n");
    body.push('\n');
    body.push_str(job);
    body.push('\n');
    (&stream).write_all(&format_request(
        "POST",
        "/eval",
        &[("Connection", "close")],
        body.as_bytes(),
    ))?;
    // The response interleaves one reply group per command; the first
    // `setup.len()` terminal frames belong to the setup replay and only
    // the final group is the job's.
    let mut setup_finals = setup.len();
    read_http_frames(&mut reader, |line| {
        if setup_finals > 0 {
            if matches!(decode_frame(line), Some(WireFrame::Final(_))) {
                setup_finals -= 1;
            }
            return;
        }
        account_frame(line, outstanding, acc);
    })?;
    if !outstanding.lock().unwrap().is_empty() {
        // The job's terminal frame never arrived (server closed early).
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "reply group truncated",
        ));
    }
    Ok(())
}

struct ConnHandle {
    tx: Sender<Cmd>,
    outstanding: Arc<Mutex<VecDeque<Entry>>>,
    join: JoinHandle<()>,
}

// ---------------------------------------------------------------------
// The run driver
// ---------------------------------------------------------------------

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .filter(|v| v.starts_with(' '))
                .map(|v| v.trim().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("missing {name} in stats"))
}

/// A synchronous probe connection for `stats` snapshots (inline on the
/// reactor, so it stays responsive even at full overload).
struct Probe {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Probe {
    fn connect(addr: SocketAddr) -> Probe {
        let stream = TcpStream::connect(addr).expect("connect probe");
        Probe {
            reader: BufReader::new(stream.try_clone().expect("clone probe")),
            writer: stream,
        }
    }

    fn stats(&mut self) -> String {
        self.writer.write_all(b"stats\n").expect("write stats");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read stats");
        let frame = decode_frame(reply.trim_end_matches('\n')).expect("stats frame");
        match frame {
            WireFrame::Final(WireReply::Ok(text)) => text,
            other => panic!("stats answered {other:?}"),
        }
    }
}

/// Run the workload against a fresh in-process server and report.
///
/// Every request's send time comes from [`plan`]; latency is measured
/// from that scheduled time (not the actual write), so server-induced
/// queueing is fully charged. Between steps the driver drains
/// outstanding replies, bounding cross-step attribution spill.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let plans = plan(cfg);
    let server = Server::bind(&cfg.server_config()).expect("bind load server");
    let addr = server.local_addr().expect("server addr");
    let handle = server.shutdown_handle().expect("shutdown handle");
    let server_join = std::thread::spawn(move || server.run().expect("server run"));

    let acc = Arc::new(RunAcc {
        steps: cfg.steps.iter().map(|_| StepAcc::new()).collect(),
        malformed: AtomicU64::new(0),
    });
    let catalogs: Vec<Catalog> = (0..4).map(|c| catalog(c, cfg.ranks)).collect();
    let conns: Vec<ConnHandle> = (0..cfg.connections)
        .map(|c| {
            let (tx, rx) = mpsc::channel();
            let outstanding = Arc::new(Mutex::new(VecDeque::new()));
            let setup = catalogs[c % 4].setup.clone();
            let (out2, acc2) = (outstanding.clone(), acc.clone());
            let transport = cfg.transport;
            let join =
                std::thread::spawn(move || conn_writer(addr, setup, rx, out2, acc2, transport));
            ConnHandle { tx, outstanding, join }
        })
        .collect();
    let mut probe = Probe::connect(addr);

    let mut steps = Vec::with_capacity(plans.len());
    for (si, step_plan) in plans.iter().enumerate() {
        let before = probe.stats();
        let mut churns = 0u64;
        let step_start = Instant::now();
        for ev in &step_plan.events {
            let target = step_start + Duration::from_micros(ev.at_us);
            if let Some(wait) = target.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let conn = &conns[ev.conn];
            match &ev.action {
                Action::Job(rank) => {
                    let line = catalogs[ev.conn % 4].jobs[rank % cfg.ranks].clone();
                    conn.tx
                        .send(Cmd::Job { line, step: si, scheduled: target })
                        .expect("dispatch job");
                }
                Action::Churn => {
                    churns += 1;
                    conn.tx.send(Cmd::Churn).expect("dispatch churn");
                }
            }
        }
        // Drain: outstanding replies resolve quickly once sending
        // stops (the queue deadline bounds waiting), but don't hang
        // the harness if a reply never comes.
        let drain_deadline = Instant::now() + Duration::from_secs(15);
        while conns.iter().any(|c| !c.outstanding.lock().unwrap().is_empty())
            && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let after = probe.stats();

        let sa = &acc.steps[si];
        let hist = sa.hist.lock().unwrap().clone();
        let ttfc = sa.ttfc.lock().unwrap().clone();
        let delta = |key: &str| stats_field(&after, key) - stats_field(&before, key);
        steps.push(StepReport {
            offered_qps: step_plan.offered_qps,
            sent: sa.sent.load(Ordering::Relaxed),
            churns,
            ok: sa.ok.load(Ordering::Relaxed),
            busy: sa.busy.load(Ordering::Relaxed),
            errors: sa.errors.load(Ordering::Relaxed),
            lost: sa.lost.load(Ordering::Relaxed),
            achieved_qps: sa.ok.load(Ordering::Relaxed) as f64 / (cfg.step_ms as f64 / 1e3),
            p50_us: hist.quantile(0.50),
            p90_us: hist.quantile(0.90),
            p99_us: hist.quantile(0.99),
            p999_us: hist.quantile(0.999),
            max_us: hist.max(),
            ttfc_count: ttfc.count(),
            ttfc_p50_us: ttfc.quantile(0.50),
            ttfc_p99_us: ttfc.quantile(0.99),
            ttfc_max_us: ttfc.max(),
            jobs_shed: delta("jobs_shed_total"),
            deadline_expired: delta("deadline_expired_total"),
            conn_inflight_rejected: delta("conn_inflight_rejected_total"),
            jobs_executed: delta("jobs_executed_total"),
            jobs_cached: delta("jobs_cached_total"),
        });
    }

    for conn in &conns {
        let _ = conn.tx.send(Cmd::Quit);
    }
    for conn in conns {
        let _ = conn.join.join();
    }
    handle.shutdown();
    server_join.join().expect("server thread");

    // Late stragglers may have resolved after their step's snapshot
    // (per-request jobs can even still be queued in a slot's channel);
    // fold final client-side counts back in so the report reconciles.
    for (si, report) in steps.iter_mut().enumerate() {
        let sa = &acc.steps[si];
        report.sent = sa.sent.load(Ordering::Relaxed);
        report.ok = sa.ok.load(Ordering::Relaxed);
        report.busy = sa.busy.load(Ordering::Relaxed);
        report.errors = sa.errors.load(Ordering::Relaxed);
        report.lost = sa.lost.load(Ordering::Relaxed);
    }

    LoadReport {
        transport: cfg.transport,
        seed: cfg.seed,
        connections: cfg.connections,
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        queue_deadline_ms: cfg.queue_deadline_ms,
        max_inflight_per_conn: cfg.max_inflight_per_conn,
        malformed: acc.malformed.load(Ordering::Relaxed),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_service::run_batch;

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let cfg = LoadConfig::standard(3707);
        let (a, b) = (plan(&cfg), plan(&cfg));
        assert_eq!(a, b, "same seed must produce the identical schedule");
        assert_eq!(a.len(), cfg.steps.len());
        for (sp, &qps) in a.iter().zip(&cfg.steps) {
            assert_eq!(sp.offered_qps, qps);
            assert!(!sp.events.is_empty());
            assert!(sp.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
            assert!(sp.events.iter().all(|e| e.conn < cfg.connections));
        }
        let c = plan(&LoadConfig::standard(3708));
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn zipf_is_hot_headed_and_normalized() {
        let cdf = zipf_cdf(32, 1.1);
        assert!((cdf[31] - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 32];
        for _ in 0..10_000 {
            counts[sample_zipf(&mut rng, &cdf)] += 1;
        }
        assert!(counts[0] > counts[8] && counts[8] > 0, "{counts:?}");
    }

    #[test]
    fn histogram_quantiles_are_within_tolerance() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        for (q, expected) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expected).abs() / expected;
            assert!(err < 0.04, "q{q}: got {got}, expected ~{expected}");
        }
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
        // Small exact values are exact.
        let mut small = Histogram::new();
        small.record(3);
        small.record(17);
        assert_eq!(small.quantile(0.5), 3);
        assert_eq!(small.quantile(1.0), 17);
    }

    #[test]
    fn every_catalog_job_is_accepted_by_the_server() {
        for class in 0..4 {
            let cat = catalog(class, 16);
            assert_eq!(cat.jobs.len(), 16, "{}", cat.name);
            let mut script = cat.setup.join("\n");
            script.push('\n');
            // Rank 0 everywhere, a couple more for the cheap classes
            // (the cliff's higher ranks cost seconds in debug builds).
            let probe_ranks = if class == 3 { 1 } else { 3 };
            for job in cat.jobs.iter().take(probe_ranks) {
                script.push_str(job);
                script.push('\n');
            }
            let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
            let mut out = Vec::new();
            run_batch(script.as_bytes(), &mut out, &cfg).expect("batch");
            let out = String::from_utf8(out).unwrap();
            for line in out.lines() {
                assert!(
                    !line.starts_with("err"),
                    "{}: catalog produced {line:?}\n{out}",
                    cat.name
                );
            }
        }
    }
}
