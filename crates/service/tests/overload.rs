//! Integration tests of admission control and graceful drain: shed
//! replies are byte-exact (`err busy` / `err* <i> busy`), shed and
//! expired jobs leave no trace in the cache or route counters, the
//! stats counters reconcile with what clients observed, a full pool
//! queue never makes unrelated connections unresponsive nor declines a
//! memoized cache hit, and `shutdown` finishes every accepted job
//! before `bye`.
//!
//! The slow jobs here run the general enumeration engine (planner
//! disabled) over a five-null database: ~100ms per μ in release,
//! several hundred ms in debug — long enough that a saturated worker
//! stays saturated across the few milliseconds of client activity the
//! tests need, in both profiles.

use caz_service::http::{format_request, read_response};
use caz_service::proto::{join_jobs, decode_frame, decode_reply, WireFrame, WireReply};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn spawn_cfg(cfg: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// Knobs shared by the overload scenarios: one worker, admission
/// control armed, planner off so every job is an enumeration.
fn overload_cfg(queue_cap: usize, deadline_ms: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap,
        queue_deadline_ms: deadline_ms,
        planner: false,
        ..ServerConfig::default()
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Write a command line without waiting for the reply (pipelining).
    /// One write → one segment: two small writes per line would hit
    /// Nagle/delayed-ACK stalls (~40ms each), wrecking the tight
    /// saturation windows these tests choreograph.
    fn push(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
    }

    /// Read one reply line verbatim (trailing newline stripped) for
    /// byte-exact framing assertions.
    fn read_raw_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "unexpected EOF");
        line.trim_end_matches('\n').to_string()
    }

    fn read_frame(&mut self) -> WireFrame {
        let line = self.read_raw_line();
        decode_frame(&line).unwrap_or_else(|| panic!("malformed frame {line:?}"))
    }

    /// Read frames until (and including) the group's terminal line.
    fn read_group(&mut self) -> (Vec<WireFrame>, WireReply) {
        let mut chunks = Vec::new();
        loop {
            match self.read_frame() {
                WireFrame::Final(terminal) => return (chunks, terminal),
                chunk => chunks.push(chunk),
            }
        }
    }

    fn send(&mut self, line: &str) -> WireReply {
        self.push(line);
        let raw = self.read_raw_line();
        decode_reply(&raw).expect("well-formed wire reply")
    }

    fn send_ok(&mut self, line: &str) -> String {
        match self.send(line) {
            WireReply::Ok(t) => t,
            other => panic!("expected ok for {line:?}, got {other:?}"),
        }
    }

    /// Load the five-null relation and the two query shapes the
    /// overload scenarios evaluate: `Q(x, y)` for distinct-argument
    /// `mu` jobs, nullary `S` for `series`.
    fn setup(&mut self) {
        self.send_ok("fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).");
        self.send_ok("query Q(x, y) := R(x, y)");
        self.send_ok("query S := exists u, v. R(u, v)");
    }
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .filter(|v| v.starts_with(' '))
                .map(|v| v.trim().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

/// Fifteen constant facts for the session whose `series` holds the
/// worker: they make each valuation's `v(D)` four times larger without
/// changing the nulls, so `series S 10` lasts ~0.5 s in release and
/// several seconds in debug, far past the sleeps below.
const BALLAST: &str = "fact R(d0, d1). R(d1, d2). R(d2, d3). R(d3, d4). R(d4, d5). R(d5, d6). R(d6, d7). R(d7, d8). R(d8, d9). R(d9, d10). R(d10, d11). R(d11, d12). R(d12, d13). R(d13, d14). R(d14, d15).";

/// Saturate the single worker deterministically: one long `series` job
/// running on the worker plus one `mu` job filling the depth-1 queue.
/// Returns the two loaded clients; the caller must drain them with
/// [`drain_saturators`] before reading stats.
fn saturate(addr: SocketAddr, series_k: usize) -> (Client, Client) {
    let mut a1 = Client::connect(addr);
    a1.setup();
    a1.send_ok(BALLAST);
    a1.push(&format!("series S {series_k}"));
    // The worker's recv() wakes in microseconds; after this sleep the
    // series job is running on the worker and the queue is empty again.
    std::thread::sleep(Duration::from_millis(30));
    let mut a2 = Client::connect(addr);
    a2.setup();
    a2.push("mu Q (c0, _x0)");
    // Now the queue (capacity 1) holds the mu job and stays full until
    // the series job finishes — hundreds of milliseconds away.
    std::thread::sleep(Duration::from_millis(30));
    (a1, a2)
}

/// Exact `series` frames: the rows and the terminal line. The anytime
/// evaluator may interleave advisory `approx` chunks with the exact
/// rows; only the rows are part of these tests' contracts.
fn exact_group(client: &mut Client) -> (Vec<WireFrame>, WireReply) {
    let (chunks, terminal) = client.read_group();
    let rows = chunks
        .into_iter()
        .filter(|f| !matches!(f, WireFrame::Chunk { tag, .. } if tag == "approx"))
        .collect();
    (rows, terminal)
}

fn drain_saturators(a1: &mut Client, a2: &mut Client, series_k: usize) {
    let (rows, terminal) = exact_group(a1);
    assert_eq!(terminal, WireReply::Ok(format!("done {series_k}")));
    assert_eq!(rows.len(), series_k, "{rows:?}");
    let reply = a2.read_frame();
    assert!(
        matches!(&reply, WireFrame::Final(WireReply::Ok(t)) if t.starts_with("μ(")),
        "queued mu job must still run to completion: {reply:?}"
    );
}

/// A full pool queue sheds instead of parking: plain commands answer
/// exactly `err busy`, every member of an `eval*` group answers an
/// index-tagged `err* <i> busy` chunk with the group framing intact,
/// and the `jobs_shed_total` counter reconciles with the busy frames
/// the clients saw while nothing else (errors, cache, routes) moves.
#[test]
fn full_queue_sheds_with_exact_busy_framing_and_reconciled_counters() {
    let (addr, handle, join) = spawn_cfg(overload_cfg(1, 60_000));
    // series S 10 holds the single worker for ~500ms in release and
    // several seconds in debug (μᵏ cost grows steeply with k) — the
    // busy window every declined client below acts inside.
    let (mut a1, mut a2) = saturate(addr, 10);

    // A whole eval* group declined: chunks in index order, terminal
    // `ok done` intact, every line byte-exact.
    let mut d = Client::connect(addr);
    d.setup();
    let jobs: Vec<String> = (0..4).map(|i| format!("mu Q (c{i}, _x{i})")).collect();
    d.push(&format!(
        "eval* {}",
        join_jobs(jobs.iter().map(String::as_str))
    ));
    for i in 0..4 {
        assert_eq!(d.read_raw_line(), format!("err* {i} busy"));
    }
    assert_eq!(d.read_raw_line(), "ok done 4");

    // A declined single evaluation and a declined series: exactly
    // `err busy`, no chunks.
    let mut b = Client::connect(addr);
    b.setup();
    b.push("mu Q (c1, _x1)");
    assert_eq!(b.read_raw_line(), "err busy");
    let mut c = Client::connect(addr);
    c.setup();
    c.push("series S 3");
    assert_eq!(c.read_raw_line(), "err busy");

    // The two admitted jobs still complete normally.
    drain_saturators(&mut a1, &mut a2, 10);

    // Reconciliation: 4 + 1 + 1 busy frames observed, and exactly that
    // many sheds counted. Shed jobs never executed, so the cache, the
    // route counters, and the latency histogram saw only the two
    // admitted jobs — and busy is not an error.
    let mut probe = Client::connect(addr);
    let stats = probe.send_ok("stats");
    assert_eq!(stats_field(&stats, "jobs_shed_total"), 6, "{stats}");
    assert_eq!(stats_field(&stats, "deadline_expired_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "conn_inflight_rejected_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_executed_total"), 2, "{stats}");
    assert_eq!(stats_field(&stats, "eval_latency_count"), 2, "{stats}");
    assert_eq!(stats_field(&stats, "cache_insertions"), 2, "{stats}");
    assert_eq!(stats_field(&stats, "cache_misses"), 2, "{stats}");
    assert_eq!(stats_field(&stats, "planner_fallback_total"), 2, "{stats}");

    handle.shutdown();
    join.join().unwrap();
}

/// Jobs that out-wait the queue deadline expire at dequeue: the work
/// closure never runs (no cache insertion, no route note, no latency
/// sample) and the member answers `err* <i> busy` inside an intact
/// group.
#[test]
fn queue_deadline_expires_waiting_jobs_without_running_them() {
    // Deep queue, 30ms deadline: all four jobs are admitted, the first
    // is dequeued by the idle worker within microseconds and runs for
    // ~0.5s (a sixth null puts ~164k classes in its support
    // polynomial; five nulls take only ~40ms, too close to the
    // deadline), so the other three are past their deadline when their
    // turn comes.
    let (addr, handle, join) = spawn_cfg(overload_cfg(8, 30));
    let mut a = Client::connect(addr);
    a.setup();
    a.send_ok("fact R(c5, _x5).");
    let jobs: Vec<String> = (0..4).map(|i| format!("mu Q (c{i}, _x{i})")).collect();
    a.push(&format!(
        "eval* {}",
        join_jobs(jobs.iter().map(String::as_str))
    ));

    // Completion order is the pool channel's FIFO order: the executed
    // job's chunk, then the three expiries, byte-exact.
    let first = a.read_frame();
    assert!(
        matches!(&first, WireFrame::Chunk { tag, payload } if tag == "0" && payload.starts_with("μ(")),
        "{first:?}"
    );
    for i in 1..4 {
        assert_eq!(a.read_raw_line(), format!("err* {i} busy"));
    }
    assert_eq!(a.read_raw_line(), "ok done 4");

    let mut probe = Client::connect(addr);
    let stats = probe.send_ok("stats");
    assert_eq!(stats_field(&stats, "deadline_expired_total"), 3, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_shed_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_executed_total"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "eval_latency_count"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "cache_insertions"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "planner_fallback_total"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");

    handle.shutdown();
    join.join().unwrap();
}

/// `--max-inflight-per-conn` declines the tail of a pipelined burst in
/// reply order — accepted replies first, then one `err busy` per
/// declined line — independent of the queue deadline (disabled here),
/// and counted separately from pool sheds.
#[test]
fn per_conn_inflight_cap_sheds_excess_pipelining_in_reply_order() {
    let cfg = ServerConfig {
        max_inflight_per_conn: 2,
        ..overload_cfg(8, 0)
    };
    let (addr, handle, join) = spawn_cfg(cfg);
    let mut a = Client::connect(addr);
    a.setup();

    // One write, one TCP segment on loopback, one extraction pass on
    // the server: lines 0 and 1 are admitted (backlog 2 = the cap),
    // lines 2..5 are declined at extraction before any of them runs.
    let burst: String = (0..6).map(|i| format!("mu Q (c{i}, _x{i})\n")).collect();
    a.writer.write_all(burst.as_bytes()).unwrap();
    a.writer.flush().unwrap();

    for i in 0..2 {
        let reply = a.read_frame();
        assert!(
            matches!(&reply, WireFrame::Final(WireReply::Ok(t)) if t.starts_with("μ(")),
            "admitted line {i}: {reply:?}"
        );
    }
    for _ in 0..4 {
        assert_eq!(a.read_raw_line(), "err busy");
    }

    // The cap is per connection: a fresh connection is unaffected.
    let mut probe = Client::connect(addr);
    let stats = probe.send_ok("stats");
    assert_eq!(stats_field(&stats, "conn_inflight_rejected_total"), 4, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_shed_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "deadline_expired_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_executed_total"), 2, "{stats}");
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");

    handle.shutdown();
    join.join().unwrap();
}

/// Regression for the pool-full parking stall: while the worker and
/// its queue are saturated with slow jobs, an unrelated connection
/// still gets an inline reply immediately and a prompt `err busy` for
/// pool work — instead of parking behind hundreds of milliseconds of
/// someone else's backlog.
#[test]
fn full_queue_keeps_unrelated_connections_responsive() {
    // The deadline only needs to *arm* shed mode; keep it far above
    // the saturator's debug-build runtime (~12s, worse on a loaded CI
    // machine) so the queued mu never expires into a busy reply.
    let (addr, handle, join) = spawn_cfg(overload_cfg(1, 120_000));
    // series S 11 holds the worker for ~900ms in release (several
    // seconds in debug); a parked reply could not arrive before the
    // whole backlog drains, so the 300ms bound below separates the
    // two behaviors cleanly.
    let (mut a1, mut a2) = saturate(addr, 11);

    let mut f = Client::connect(addr);
    f.setup();
    let asked = Instant::now();
    assert!(!f.send_ok("help").is_empty(), "inline command answered");
    f.push("mu Q (c1, _x1)");
    assert_eq!(f.read_raw_line(), "err busy");
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_millis(300),
        "busy reply took {waited:?}: connection parked behind a stranger's backlog"
    );

    drain_saturators(&mut a1, &mut a2, 11);
    handle.shutdown();
    join.join().unwrap();
}

/// POST `script` to `/eval` on a keep-alive HTTP connection and return
/// the de-chunked body.
fn http_eval(reader: &mut BufReader<TcpStream>, script: &str) -> String {
    let request = format_request("POST", "/eval", &[], script.as_bytes());
    reader.get_mut().write_all(&request).unwrap();
    let response = read_response(reader).expect("read response");
    assert_eq!(response.status, 200, "{script:?}");
    String::from_utf8(response.body).unwrap()
}

/// A cache hit whose canonical form the session has memoized is answered
/// on the reactor thread, so it never enters the pool queue and a full
/// queue never sheds it: a repeated `mu` over the line protocol and over
/// HTTP, and a repeated `series`, which replays its rows and `ok done k`.
/// Each session's memo holds one answer tuple, so each client warms the
/// request it repeats last.
#[test]
fn memoized_hits_are_answered_while_the_pool_is_full() {
    let (addr, handle, join) = spawn_cfg(overload_cfg(1, 60_000));
    let mut line = Client::connect(addr);
    line.setup();
    let mu = line.send_ok("mu Q (c1, _x1)");
    let mut series = Client::connect(addr);
    series.setup();
    series.push("series S 3");
    let warm = exact_group(&mut series);
    assert_eq!(warm.0.len(), 3, "{warm:?}");
    let mut http = BufReader::new(TcpStream::connect(addr).unwrap());
    let setup = "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).\n\
                 query Q(x, y) := R(x, y)\n";
    assert_eq!(http_eval(&mut http, setup).lines().count(), 2);
    let http_mu = http_eval(&mut http, "mu Q (c2, _x2)");
    assert!(http_mu.starts_with("ok μ("), "{http_mu:?}");

    let (mut a1, mut a2) = saturate(addr, 10);
    // The queue is full: a request the memo does not hold is declined.
    let mut fresh = Client::connect(addr);
    fresh.setup();
    fresh.push("mu Q (c3, _x3)");
    assert_eq!(fresh.read_raw_line(), "err busy");

    assert_eq!(line.send_ok("mu Q (c1, _x1)"), mu);
    series.push("series S 3");
    assert_eq!(exact_group(&mut series), warm);
    assert_eq!(http_eval(&mut http, "mu Q (c2, _x2)"), http_mu);

    drain_saturators(&mut a1, &mut a2, 10);
    // Executed: the three warm-ups and the two saturators. The three
    // hits count as cached jobs, and only the fresh request was shed.
    let stats = fresh.send_ok("stats");
    assert_eq!(stats_field(&stats, "jobs_shed_total"), 1, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_executed_total"), 5, "{stats}");
    assert_eq!(stats_field(&stats, "jobs_cached_total"), 3, "{stats}");
    assert_eq!(stats_field(&stats, "cache_hit_latency_count"), 3, "{stats}");
    assert_eq!(stats_field(&stats, "cache_hits"), 3, "{stats}");
    assert_eq!(stats_field(&stats, "cache_misses"), 5, "{stats}");
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");

    drop(http);
    handle.shutdown();
    join.join().unwrap();
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("caz-overload-{tag}-{}-{nanos}", std::process::id()))
}

/// `shutdown` drains instead of dropping: every job accepted before
/// the drain began — including a deep pipelined backlog and an eval*
/// group whose submissions overflow the pool queue mid-drain — is
/// answered (never shed, even with shed mode armed), the WAL is synced
/// so a restart warm-loads every result, and only then do connections
/// close.
#[test]
fn graceful_drain_completes_accepted_backlog_before_closing() {
    let dir = temp_store_dir("drain");
    let cfg = ServerConfig {
        cache_path: Some(dir.clone()),
        ..overload_cfg(1, 60_000)
    };
    let (addr, handle, join) = spawn_cfg(cfg);

    // The victim pipelines its whole session in one write — setup,
    // four singles, a six-job eval*, two more singles: 12 distinct
    // evaluations — and reads only the first reply. One write is one
    // loopback segment, so that first reply proves the server has
    // extracted the entire backlog.
    let mut b = Client::connect(addr);
    let singles = [(0, 0), (1, 1), (2, 2), (3, 3)];
    let group = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
    let tail = [(1, 3), (2, 4)];
    let mut burst = String::new();
    burst.push_str("fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).\n");
    burst.push_str("query Q(x, y) := R(x, y)\n");
    for (i, j) in singles {
        burst.push_str(&format!("mu Q (c{i}, _x{j})\n"));
    }
    let jobs: Vec<String> = group
        .iter()
        .map(|(i, j)| format!("mu Q (c{i}, _x{j})"))
        .collect();
    burst.push_str(&format!(
        "eval* {}\n",
        join_jobs(jobs.iter().map(String::as_str))
    ));
    for (i, j) in tail {
        burst.push_str(&format!("mu Q (c{i}, _x{j})\n"));
    }
    b.writer.write_all(burst.as_bytes()).unwrap();
    b.writer.flush().unwrap();
    let facts_reply = b.read_raw_line();
    assert!(facts_reply.starts_with("ok "), "fact reply: {facts_reply:?}");

    // Shutdown lands while the backlog is pending (each enumeration
    // takes ~40ms+; the controller acts within a few milliseconds).
    let mut ctl = Client::connect(addr);
    ctl.push("shutdown");
    assert_eq!(ctl.read_raw_line(), "bye");
    let mut rest = String::new();
    assert_eq!(ctl.reader.read_line(&mut rest).unwrap(), 0, "EOF after bye");

    // Every accepted job is answered, in order, with no busy frames —
    // the eval* overflowed the depth-1 queue mid-drain, where shed
    // mode must yield to parking.
    let query_reply = b.read_raw_line();
    assert!(query_reply.starts_with("ok "), "query reply: {query_reply:?}");
    for (i, j) in singles {
        let reply = b.read_frame();
        assert!(
            matches!(&reply, WireFrame::Final(WireReply::Ok(t)) if t.starts_with("μ(")),
            "single ({i},{j}) during drain: {reply:?}"
        );
    }
    let (chunks, terminal) = b.read_group();
    assert_eq!(terminal, WireReply::Ok("done 6".into()));
    assert_eq!(chunks.len(), 6, "{chunks:?}");
    for chunk in &chunks {
        assert!(
            matches!(chunk, WireFrame::Chunk { payload, .. } if payload.starts_with("μ(")),
            "no eval* member may be shed during drain: {chunks:?}"
        );
    }
    for (i, j) in tail {
        let reply = b.read_frame();
        assert!(
            matches!(&reply, WireFrame::Final(WireReply::Ok(t)) if t.starts_with("μ(")),
            "single ({i},{j}) during drain: {reply:?}"
        );
    }
    let mut eof = String::new();
    assert_eq!(b.reader.read_line(&mut eof).unwrap(), 0, "EOF after drain");
    join.join().unwrap();
    drop(handle);

    // The drain synced the WAL on exit: a restart over the same store
    // warm-loads all 12 results.
    let cfg2 = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_path: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr2, handle2, join2) = spawn_cfg(cfg2);
    let mut probe = Client::connect(addr2);
    let stats = probe.send_ok("stats");
    assert_eq!(stats_field(&stats, "store_loaded_entries"), 12, "{stats}");
    assert_eq!(stats_field(&stats, "cache_entries"), 12, "{stats}");
    handle2.shutdown();
    join2.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

