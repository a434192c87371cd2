//! End-to-end tests of anytime `series` serving: approx-chunk
//! streaming, differential byte-identity against batch mode, cache-hit
//! replay, and graceful-shutdown drain.
//!
//! The contract under test (see `docs/ANYTIME.md` and the grammar in
//! `caz_service::proto`): `ok* approx …` chunks are advisory — deleting
//! them from a live reply stream must leave a frame sequence
//! byte-identical to the sequential path — and only the exact terminal
//! aggregate is ever cached. The differential layer drives a seeded
//! random catalog (`CAZ_TEST_SEED`, fixed default) through a live
//! server and through `run_batch`, which never streams and so
//! enumerates sequentially. Both run with the planner off, so every
//! series enumerates; `series_census.rs` covers the planner's census
//! path.

use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{run_batch, Server, ServerConfig, ShutdownHandle};
use caz_testutil::{rngs::StdRng, RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

/// A two-worker server with the planner off: anytime serving is for
/// series jobs that enumerate, and with the planner on the class census
/// answers these five-null jobs in one short pass instead.
fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        planner: false,
        ..ServerConfig::default()
    }
}

fn spawn_server() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config()).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn push(&mut self, line: &str) {
        // One write per line: a separate `\n` would wait in Nagle's
        // buffer for the server's delayed ACK (~40 ms).
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    /// Read one frame, returning both the raw wire line and its decoded
    /// form (the differential layer compares raw bytes).
    fn read_raw_frame(&mut self) -> (String, WireFrame) {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        let raw = line.trim_end_matches('\n').to_string();
        let frame = decode_frame(&raw).unwrap_or_else(|| panic!("malformed frame {raw:?}"));
        (raw, frame)
    }

    /// Read a whole reply group as raw wire lines, terminal included.
    fn read_raw_group(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let (raw, frame) = self.read_raw_frame();
            let done = matches!(frame, WireFrame::Final(_));
            lines.push(raw);
            if done {
                return lines;
            }
        }
    }

    fn send_ok(&mut self, line: &str) -> String {
        self.push(line);
        match self.read_raw_frame().1 {
            WireFrame::Final(WireReply::Ok(t)) => t,
            other => panic!("expected ok for {line:?}, got {other:?}"),
        }
    }
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

fn is_approx(raw: &str) -> bool {
    raw.starts_with("ok* approx ")
}

/// A random command script: facts over `R/2`, `S/1` with up to four
/// distinct nulls, one query definition, and a handful of evaluation
/// commands ending in a `series`. Small enough to stay fast in debug
/// builds, large enough (`k⁴` up to ~6.5k valuations) to cross the
/// anytime evaluator's sampling threshold and span several slices on
/// some draws.
fn random_script(rng: &mut StdRng) -> Vec<String> {
    const CONSTS: [&str; 4] = ["a", "b", "c", "d"];
    const NULLS: [&str; 4] = ["_x", "_y", "_z", "_w"];
    let term = |rng: &mut StdRng| {
        if rng.random_bool(0.5) {
            NULLS[rng.random_range(0..NULLS.len())]
        } else {
            CONSTS[rng.random_range(0..CONSTS.len())]
        }
    };
    let mut parts = Vec::new();
    for _ in 0..rng.random_range(2..6) {
        parts.push(format!("R({}, {}).", term(rng), term(rng)));
    }
    for _ in 0..rng.random_range(0..3) {
        parts.push(format!("S({}).", term(rng)));
    }
    let def = match rng.random_range(0..4) {
        0 => "query Q := exists u, v. R(u, v)",
        1 => "query Q := exists u. R(u, u)",
        2 => "query Q := exists u. S(u) & !R(u, u)",
        _ => "query Q := forall u. S(u) -> exists v. R(u, v)",
    };
    let k = rng.random_range(3..10);
    vec![
        "clear".into(),
        format!("fact {}", parts.join(" ")),
        def.into(),
        "mu Q".into(),
        format!("series Q {k}"),
    ]
}

/// `run_batch`'s replies to `script`, one reply group per line.
fn batch_groups(script: &[String]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    run_batch(script.join("\n").as_bytes(), &mut out, &config()).expect("batch run");
    let mut groups = vec![Vec::new()];
    for raw in String::from_utf8(out).unwrap().lines() {
        let frame = decode_frame(raw).unwrap_or_else(|| panic!("malformed frame {raw:?}"));
        groups.last_mut().unwrap().push(raw.to_string());
        if matches!(frame, WireFrame::Final(_)) {
            groups.push(Vec::new());
        }
    }
    groups.pop();
    groups
}

/// The correctness gate: for a seeded catalog of sessions, the live
/// server's reply stream with `approx` chunks deleted is byte-identical
/// to batch mode's, command by command — including cache-hit replays
/// (both see the same catalog in one session, so their caches fill
/// identically).
#[test]
fn stripped_live_frames_are_byte_identical_to_batch() {
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA17_71E);
    let script: Vec<String> = (0..12).flat_map(|_| random_script(&mut rng)).collect();
    // The batch run ends with `stats`, read apart from the compared groups.
    let mut want = batch_groups(&[script.clone(), vec!["stats".into()]].concat());
    let batch_stats = want.pop().expect("the batch's stats group");
    assert_eq!(want.len(), script.len());

    let (addr, handle, join) = spawn_server();
    let mut client = Client::connect(addr);
    for (cmd, want) in script.iter().zip(&want) {
        client.push(cmd);
        let got: Vec<String> = client
            .read_raw_group()
            .into_iter()
            .filter(|raw| !is_approx(raw))
            .collect();
        assert_eq!(
            &got, want,
            "CAZ_TEST_SEED={seed}: live reply (approx stripped) diverges from \
             the batch reply for {cmd:?}"
        );
    }
    let batch_stats = match decode_frame(&batch_stats[0]) {
        Some(WireFrame::Final(WireReply::Ok(stats))) => stats,
        other => panic!("batch stats: {other:?}"),
    };
    for (side, stats) in [("batch", batch_stats), ("live", client.send_ok("stats"))] {
        assert_eq!(stats_field(&stats, "panics_total"), 0, "CAZ_TEST_SEED={seed}: {side}: {stats}");
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn expensive_series_streams_approx_estimates_and_replays_hits_exactly() {
    let (addr, handle, join) = spawn_server();
    let mut client = Client::connect(addr);

    // Five nulls, k up to 8: the k=8 row alone is 8⁵ = 32768 valuations
    // — over the sampling threshold, so the estimator streams while the
    // rows enumerate.
    let facts: Vec<String> = (0..5).map(|i| format!("R(c{i}, _x{i}).")).collect();
    client.send_ok(&format!("fact {}", facts.join(" ")));
    client.send_ok("query Q := exists u, v. R(u, v)");

    client.push("series Q 8");
    let group = client.read_raw_group();
    let first_row = group.iter().position(|raw| !is_approx(raw)).unwrap();
    assert!(
        first_row > 0,
        "no approx chunk preceded the first exact row: {group:?}"
    );
    // Approx payloads parse as `<value> ±<err> <samples>`.
    for raw in group.iter().filter(|raw| is_approx(raw)) {
        let payload = raw.strip_prefix("ok* approx ").unwrap();
        let fields: Vec<&str> = payload.split_whitespace().collect();
        assert_eq!(fields.len(), 3, "bad approx payload {payload:?}");
        let value: f64 = fields[0].parse().expect("approx value");
        assert!((0.0..=1.0).contains(&value), "{payload:?}");
        let err: f64 = fields[1].strip_prefix('±').expect("± prefix").parse().unwrap();
        assert!(err > 0.0, "degenerate error bar: {payload:?}");
        let _samples: u64 = fields[2].parse().expect("sample count");
    }
    let exact: Vec<String> = group.into_iter().filter(|raw| !is_approx(raw)).collect();
    assert_eq!(exact.len(), 9, "eight rows and the terminal: {exact:?}");
    assert_eq!(exact.last().unwrap(), "ok done 8");

    // The estimator left counter evidence.
    let stats = client.send_ok("stats");
    assert!(stats_field(&stats, "anytime_chunks_total") >= 1, "{stats}");

    // The identical request replays from the cache: the exact frames
    // byte-for-byte, with no approx chunks (nothing is being computed).
    client.push("series Q 8");
    let replay = client.read_raw_group();
    assert_eq!(replay, exact, "cache replay must re-emit the exact frames");
    let stats = client.send_ok("stats");
    assert!(stats_field(&stats, "jobs_cached_total") >= 1, "{stats}");

    handle.shutdown();
    join.join().unwrap();
}

/// Graceful shutdown drains an in-flight anytime series to its exact
/// terminal `done` — the job runs to completion even as the pool stops
/// accepting new jobs — before the connection closes.
#[test]
fn graceful_shutdown_drains_an_anytime_series_to_its_exact_done() {
    let (addr, _handle, join) = spawn_server();
    let mut streamer = Client::connect(addr);
    let facts: Vec<String> = (0..5).map(|i| format!("R(c{i}, _x{i}).")).collect();
    streamer.send_ok(&format!("fact {}", facts.join(" ")));
    streamer.send_ok("query Q := exists u, v. R(u, v)");
    streamer.push("series Q 8");
    // The first frame (an approx estimate) proves the job is admitted
    // and mid-flight — only lines received before the stop are served,
    // so shutting down before the server has read the `series` line
    // would just close the connection.
    let (first, _) = streamer.read_raw_frame();
    assert!(is_approx(&first), "expected an early approx chunk, got {first:?}");

    // Shut down over the wire while the series is mid-flight.
    let mut admin = Client::connect(addr);
    admin.push("shutdown");
    match admin.read_raw_frame().1 {
        WireFrame::Final(WireReply::Bye) => {}
        other => panic!("expected bye, got {other:?}"),
    }

    // The draining server still serves the full group: every exact row
    // plus the terminal, then EOF once idle.
    let group = streamer.read_raw_group();
    let exact: Vec<&String> = group.iter().filter(|raw| !is_approx(raw)).collect();
    assert_eq!(exact.len(), 9, "drain lost frames: {group:?}");
    assert_eq!(*exact.last().unwrap(), "ok done 8");
    let mut rest = String::new();
    assert_eq!(
        streamer.reader.read_line(&mut rest).expect("read after drain"),
        0,
        "expected EOF after the drained group, got {rest:?}"
    );

    join.join().unwrap();
}
