//! Byte-identity between the two transports: a `text/plain` HTTP body,
//! after de-chunking, is the same byte string as the line-protocol
//! reply group for the same command — across the full command surface,
//! including cache-hit series replays, vectorized batches, and `err
//! busy` shed under a full pool queue (where HTTP additionally promotes
//! the group to `503` + `Retry-After`).
//!
//! Advisory `ok* approx` chunks are timing-dependent by design, so they
//! are the one part of a streamed group that is not byte-reproducible
//! across runs: both clients strip them before comparing (a dedicated
//! gateway test asserts they do flow over HTTP).

use caz_service::http::{format_request, read_response};
use caz_service::proto::{decode_frame, decode_reply, WireFrame, WireReply};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spawn_cfg(cfg: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// Deterministic config: one worker (stable `eval*` completion order).
fn identity_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    }
}

fn is_approx(line: &str) -> bool {
    line.starts_with("ok* approx ")
}

/// The command surface compared byte-for-byte. `stats` is excluded:
/// its payload contains live counters (uptime, per-transport request
/// counts) that legitimately differ between the two servers.
fn surface() -> Vec<&'static str> {
    vec![
        "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).",
        "query Q(x, y) := R(x, y)",
        "query S := exists u, v. R(u, v)",
        "query Col := exists p. R(c0, p) & R(c1, p)",
        "help",
        "db",
        "sigma",
        "mu Q (c0, _x0)",
        "mu Q (c0, _x9)",
        "certain S",
        "cond S",
        "series S 4",
        "series S 4", // cache-hit replay: frames come from the cached aggregate
        "series Col 3",
        "eval* mu Q (c0, _x0)\tcertain S\tmu Nope",
        "plan mu Q (c0, _x0)",
        "explain series S 4",
        "mu Nope",
        "bogus nonsense",
        "",
    ]
}

/// Assert that a server's `stats` reply group reads `panics_total 0`.
fn assert_no_panics(server: &str, group: &str) {
    let Some(WireReply::Ok(stats)) = decode_reply(group) else {
        panic!("{server} server: malformed stats group {group:?}");
    };
    assert!(stats.lines().any(|l| l == "panics_total 0"), "{server} server panicked: {stats}");
}

struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        LineClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn push(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
    }

    /// Read one whole reply group verbatim, `approx` chunks stripped:
    /// every line including its trailing newline, through the terminal
    /// frame.
    fn read_group_bytes(&mut self) -> String {
        let mut group = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read group line");
            assert!(n > 0, "EOF mid-group, collected so far: {group:?}");
            if !is_approx(&line) {
                group.push_str(&line);
            }
            let frame = decode_frame(line.trim_end_matches('\n'))
                .unwrap_or_else(|| panic!("malformed frame {line:?}"));
            if matches!(frame, WireFrame::Final(_)) {
                return group;
            }
        }
    }

    fn run(&mut self, cmd: &str) -> String {
        self.push(cmd);
        self.read_group_bytes()
    }
}

struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> HttpClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        HttpClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// POST one command to `/eval`; return (status, de-chunked body
    /// with `approx` lines stripped).
    fn eval(&mut self, cmd: &str) -> (u16, String) {
        self.request("POST", "/eval", cmd.as_bytes())
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> (u16, String) {
        self.writer
            .write_all(&format_request(method, target, &[], body))
            .unwrap();
        self.writer.flush().unwrap();
        let resp = read_response(&mut self.reader).expect("read response");
        let body = String::from_utf8(resp.body).expect("utf-8 body");
        let exact = body.split_inclusive('\n').filter(|l| !is_approx(l));
        (resp.status, exact.collect())
    }
}

#[test]
fn http_bodies_are_byte_identical_to_line_groups_across_the_surface() {
    let (line_addr, line_handle, line_join) = spawn_cfg(identity_cfg());
    let (http_addr, http_handle, http_join) = spawn_cfg(identity_cfg());
    let mut line = LineClient::connect(line_addr);
    let mut http = HttpClient::connect(http_addr);

    for cmd in surface() {
        let group = line.run(cmd);
        let (_status, body) = http.eval(cmd);
        assert_eq!(
            body, group,
            "transport divergence for command {cmd:?}"
        );
    }
    assert_no_panics("line", &line.run("stats"));
    assert_no_panics("http", &http.eval("stats").1);

    line_handle.shutdown();
    http_handle.shutdown();
    line_join.join().unwrap();
    http_join.join().unwrap();
}

#[test]
fn one_post_with_the_whole_script_concatenates_the_same_groups() {
    let (line_addr, line_handle, line_join) = spawn_cfg(identity_cfg());
    let (http_addr, http_handle, http_join) = spawn_cfg(identity_cfg());
    let mut line = LineClient::connect(line_addr);
    let mut http = HttpClient::connect(http_addr);

    let script = surface();
    let mut concatenated = String::new();
    for cmd in &script {
        concatenated.push_str(&line.run(cmd));
    }

    let body_text = script.join("\n") + "\n";
    let (status, body) = http.eval(&body_text);
    assert_eq!(status, 200, "first group opens with ok");
    assert_eq!(body, concatenated, "multi-command POST diverged");

    line_handle.shutdown();
    http_handle.shutdown();
    line_join.join().unwrap();
    http_join.join().unwrap();
}

#[test]
fn eval_batch_endpoint_matches_the_eval_star_group() {
    let (line_addr, line_handle, line_join) = spawn_cfg(identity_cfg());
    let (http_addr, http_handle, http_join) = spawn_cfg(identity_cfg());
    let mut line = LineClient::connect(line_addr);
    let mut http = HttpClient::connect(http_addr);

    for cmd in &surface()[..4] {
        line.run(cmd);
        http.eval(cmd);
    }

    let group = line.run("eval* mu Q (c0, _x0)\tcertain S\tmu Nope");
    let (status, body) = http.request("POST", "/eval-batch", b"mu Q (c0, _x0)\ncertain S\nmu Nope\n");
    assert_eq!(status, 200);
    assert_eq!(body, group, "/eval-batch diverged from eval*");

    line_handle.shutdown();
    http_handle.shutdown();
    line_join.join().unwrap();
    http_join.join().unwrap();
}

#[test]
fn get_series_matches_the_series_command_group() {
    let (line_addr, line_handle, line_join) = spawn_cfg(identity_cfg());
    let (http_addr, http_handle, http_join) = spawn_cfg(identity_cfg());
    let mut line = LineClient::connect(line_addr);
    let mut http = HttpClient::connect(http_addr);

    for cmd in &surface()[..4] {
        line.run(cmd);
        http.eval(cmd);
    }

    let group = line.run("series S 5");
    let (status, body) = http.request("GET", "/series/S/5", b"");
    assert_eq!(status, 200);
    assert_eq!(body, group, "GET /series diverged from the series command");

    // And the cache-hit replay of the same series.
    let replay_group = line.run("series S 5");
    let (_s, replay_body) = http.request("GET", "/series/S/5", b"");
    assert_eq!(replay_body, replay_group, "cached series replay diverged");
    assert_eq!(replay_body, body, "replay must reproduce the first run");

    line_handle.shutdown();
    http_handle.shutdown();
    line_join.join().unwrap();
    http_join.join().unwrap();
}

/// Overload identity: with the single worker held by a long series and
/// the depth-1 pool queue full, a shed evaluation answers the same
/// `err busy` bytes on both transports — and the HTTP response carries
/// `503` with `Retry-After`.
#[test]
fn busy_shed_under_a_full_pool_queue_is_byte_identical_and_503() {
    fn overload_cfg() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 1,
            queue_deadline_ms: 10_000,
            planner: false,
            ..ServerConfig::default()
        }
    }

    /// Hold the worker with a long series and fill the queue with a mu
    /// job; returns the loaded clients for draining afterwards. The
    /// series session also holds fifteen constant facts: they make each
    /// valuation's `v(D)` four times larger without changing the nulls,
    /// so `series S 10` lasts ~0.5 s in release, past both servers'
    /// saturation and the probes.
    fn saturate(addr: SocketAddr) -> (LineClient, LineClient) {
        let mut a1 = LineClient::connect(addr);
        for cmd in [
            "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).",
            "fact R(d0, d1). R(d1, d2). R(d2, d3). R(d3, d4). R(d4, d5). R(d5, d6). R(d6, d7). R(d7, d8). R(d8, d9). R(d9, d10). R(d10, d11). R(d11, d12). R(d12, d13). R(d13, d14). R(d14, d15).",
            "query Q(x, y) := R(x, y)",
            "query S := exists u, v. R(u, v)",
        ] {
            a1.run(cmd);
        }
        a1.push("series S 10");
        // After this sleep the series job is running on the worker.
        std::thread::sleep(Duration::from_millis(50));
        let mut a2 = LineClient::connect(addr);
        for cmd in [
            "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).",
            "query Q(x, y) := R(x, y)",
        ] {
            a2.run(cmd);
        }
        a2.push("mu Q (c0, _x0)");
        // And after this one the depth-1 queue holds a2's mu job.
        std::thread::sleep(Duration::from_millis(50));
        (a1, a2)
    }

    let (line_addr, line_handle, line_join) = spawn_cfg(overload_cfg());
    let (http_addr, http_handle, http_join) = spawn_cfg(overload_cfg());

    // Probe sessions define their own query before the pool fills.
    let mut line_probe = LineClient::connect(line_addr);
    let mut http_probe = HttpClient::connect(http_addr);
    for cmd in [
        "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).",
        "query Q(x, y) := R(x, y)",
    ] {
        line_probe.run(cmd);
        http_probe.eval(cmd);
    }

    let (mut l1, mut l2) = saturate(line_addr);
    let (mut h1, mut h2) = saturate(http_addr);

    // Distinct tuple from the saturators' jobs, so the result cache
    // cannot answer inline.
    let group = line_probe.run("mu Q (c1, _x1)");
    let (status, body) = http_probe.eval("mu Q (c1, _x1)");
    assert_eq!(group, "err busy\n", "pool must be full when the probe lands");
    assert_eq!(body, group, "busy framing diverged across transports");
    assert_eq!(status, 503, "busy maps to 503 over HTTP");

    // Drain the saturators so shutdown is orderly.
    for c in [&mut l1, &mut h1] {
        let group = c.read_group_bytes();
        assert!(group.ends_with("ok done 10\n"), "{group:?}");
    }
    for c in [&mut l2, &mut h2] {
        let group = c.read_group_bytes();
        assert!(!group.is_empty());
    }

    line_handle.shutdown();
    http_handle.shutdown();
    line_join.join().unwrap();
    http_join.join().unwrap();
}
