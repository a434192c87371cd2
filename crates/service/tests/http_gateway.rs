//! End-to-end tests of the HTTP/1.1 gateway sniffed on the line
//! protocol's port: keep-alive request sequences, chunked streaming of
//! `series` reply groups (including anytime `approx` estimate chunks),
//! content negotiation, status-code mapping (404/405/400/505/501/503),
//! pipelining under `max_inflight_per_conn`, `Connection: close`, and
//! coexistence with line-protocol clients on the same listener.

use caz_service::http::{format_request, read_response, HttpResponse};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spawn_cfg(cfg: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn spawn_default() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
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

    /// Write one request without reading the response (pipelining).
    fn push(&mut self, method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) {
        self.writer
            .write_all(&format_request(method, target, headers, body))
            .unwrap();
        self.writer.flush().unwrap();
    }

    fn read(&mut self) -> HttpResponse {
        read_response(&mut self.reader).expect("read response")
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> HttpResponse {
        self.push(method, target, headers, body);
        self.read()
    }

    /// POST a command script to `/eval` and return the response.
    fn eval(&mut self, script: &str) -> HttpResponse {
        self.request("POST", "/eval", &[], script.as_bytes())
    }

    /// Load the five-null relation and the query shapes the gateway
    /// tests evaluate (same database as the overload suite).
    fn setup(&mut self) {
        let resp = self.eval(
            "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).\n\
             query Q(x, y) := R(x, y)\n\
             query S := exists u, v. R(u, v)\n",
        );
        assert_eq!(resp.status, 200, "setup body: {:?}", text(&resp));
        let body = text(&resp);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "three commands, three terminal frames: {lines:?}");
        for line in &lines {
            assert!(line.starts_with("ok"), "setup reply {line:?}");
        }
    }
}

fn text(resp: &HttpResponse) -> String {
    String::from_utf8(resp.body.clone()).expect("utf-8 body")
}

/// Body lines that are exact reply frames (advisory anytime `ok* approx`
/// chunks filtered out — their values and cadence are timing-dependent).
fn exact_lines(resp: &HttpResponse) -> Vec<String> {
    text(resp)
        .lines()
        .filter(|l| !l.starts_with("ok* approx "))
        .map(str::to_string)
        .collect()
}

#[test]
fn keep_alive_client_runs_eval_series_and_stats() {
    let (addr, handle, join) = spawn_default();
    let mut c = HttpClient::connect(addr);
    c.setup();

    // All on the same connection: the session (facts, queries) set up
    // above is visible to every later request.
    let mu = c.eval("mu Q (c0, _x0)");
    assert_eq!(mu.status, 200);
    assert_eq!(mu.header("content-type"), Some("text/plain; charset=utf-8"));
    assert!(text(&mu).starts_with("ok "), "mu body {:?}", text(&mu));

    // GET /series/<name>/<k> streams one chunk per frame; the response
    // is chunked because frames appear as the evaluation progresses.
    let series = c.request("GET", "/series/S/4", &[], b"");
    assert_eq!(series.status, 200);
    assert_eq!(series.header("transfer-encoding"), Some("chunked"));
    let lines = exact_lines(&series);
    assert_eq!(lines.len(), 5, "4 rows + terminal: {lines:?}");
    for (i, line) in lines[..4].iter().enumerate() {
        // Series rows are tagged by their k value, starting at 1.
        let k = i + 1;
        assert!(
            line.starts_with(&format!("ok* {k} ")),
            "row {k}: {line:?}"
        );
    }
    assert_eq!(lines[4], "ok done 4");

    let stats = c.request("GET", "/stats", &[], b"");
    assert_eq!(stats.status, 200);
    let stats_body = text(&stats);
    assert!(stats_body.starts_with("ok "), "{stats_body:?}");
    assert!(stats_body.contains("http_requests_total"), "{stats_body:?}");
    assert!(stats_body.contains("http_responses_2xx_total"), "{stats_body:?}");
    assert!(stats_body.contains("slow_reader_disconnects_total"), "{stats_body:?}");

    let health = c.request("GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    assert!(text(&health).starts_with("ok\n"), "{:?}", text(&health));
    assert!(text(&health).contains("role single"), "{:?}", text(&health));

    let plan = c.request("GET", "/plan?q=mu%20Q%20(c0,%20_x0)", &[], b"");
    assert_eq!(plan.status, 200, "plan body {:?}", text(&plan));
    assert!(text(&plan).starts_with("ok "), "{:?}", text(&plan));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn series_streams_anytime_estimate_chunks_over_http() {
    // Planner off makes the series an honest enumeration (~hundreds of
    // ms in debug). Its final row of 10⁵ valuations is expensive, so the
    // eager estimate batch goes out before any exact work: at least one
    // approx chunk is guaranteed at the default cadence.
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        planner: false,
        ..ServerConfig::default()
    });
    let mut c = HttpClient::connect(addr);
    c.setup();

    let series = c.request("GET", "/series/S/10", &[], b"");
    assert_eq!(series.status, 200);
    let body = text(&series);
    assert!(
        body.contains("ok* approx "),
        "expected anytime estimate chunks in the streamed body:\n{body}"
    );
    let lines = exact_lines(&series);
    assert_eq!(lines.last().map(String::as_str), Some("ok done 10"), "{lines:?}");
    assert_eq!(lines.len(), 11, "10 exact rows + terminal: {lines:?}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn json_negotiation_emits_ndjson_frames() {
    let (addr, handle, join) = spawn_default();
    let mut c = HttpClient::connect(addr);
    c.setup();

    let accept = [("Accept", "application/json")];
    let mu = c.request("POST", "/eval", &accept, b"mu Q (c0, _x0)");
    assert_eq!(mu.status, 200);
    assert_eq!(mu.header("content-type"), Some("application/json"));
    let body = text(&mu);
    assert!(
        body.starts_with(r#"{"type":"ok","payload":""#),
        "json body {body:?}"
    );
    assert!(body.ends_with("\"}\n"), "json body {body:?}");

    let series = c.request("GET", "/series/S/3", &accept, b"");
    assert_eq!(series.status, 200);
    let lines: Vec<String> = text(&series)
        .lines()
        .filter(|l| !l.contains(r#""tag":"approx""#))
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    for (i, line) in lines[..3].iter().enumerate() {
        let k = i + 1;
        assert!(
            line.starts_with(&format!(r#"{{"type":"chunk","tag":"{k}","payload":""#)),
            "chunk {k}: {line:?}"
        );
    }
    assert_eq!(lines[3], r#"{"type":"ok","payload":"done 3"}"#);

    // Command errors keep their group shape in JSON too, and the first
    // frame still picks the status code.
    let bad = c.request("POST", "/eval", &accept, b"mu Nope");
    assert_eq!(bad.status, 400);
    assert!(
        text(&bad).starts_with(r#"{"type":"err","error":""#),
        "{:?}",
        text(&bad)
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn routing_errors_keep_the_connection_alive() {
    let (addr, handle, join) = spawn_default();
    let mut c = HttpClient::connect(addr);

    let missing = c.request("GET", "/nope", &[], b"");
    assert_eq!(missing.status, 404);

    let method = c.request("DELETE", "/eval", &[], b"x");
    assert_eq!(method.status, 405);

    let no_query = c.request("GET", "/plan", &[], b"");
    assert_eq!(no_query.status, 400);

    let bad_series = c.request("GET", "/series/S", &[], b"");
    assert_eq!(bad_series.status, 404);

    // Command-level errors are 400 with the line-protocol err payload.
    let bad_cmd = c.eval("bogus nonsense");
    assert_eq!(bad_cmd.status, 400);
    assert!(text(&bad_cmd).starts_with("err "), "{:?}", text(&bad_cmd));

    // None of the above tore the connection down.
    let health = c.request("GET", "/healthz", &[], b"");
    assert_eq!(health.status, 200);
    assert!(text(&health).starts_with("ok\n"), "{:?}", text(&health));
    assert!(text(&health).contains("role single"), "{:?}", text(&health));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn protocol_violations_close_with_a_status() {
    let (addr, handle, join) = spawn_default();

    // HTTP/1.0 has no chunked encoding, so streamed reply groups can't
    // be framed: 505, Connection: close, EOF.
    let mut c = HttpClient::connect(addr);
    c.writer.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let resp = c.read();
    assert_eq!(resp.status, 505);
    assert_eq!(resp.header("connection"), Some("close"));
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after a 505");

    // Chunked request bodies are not accepted.
    let mut c = HttpClient::connect(addr);
    c.writer
        .write_all(
            b"POST /eval HTTP/1.1\r\nHost: caz\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        .unwrap();
    let resp = c.read();
    assert_eq!(resp.status, 501);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn admission_cap_maps_busy_to_503_with_retry_after() {
    // One worker and a per-connection in-flight cap of 1: of two
    // pipelined requests arriving in one segment, the first is admitted
    // and the second is shed at extraction, deterministically.
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        planner: false,
        max_inflight_per_conn: 1,
        ..ServerConfig::default()
    });
    let mut c = HttpClient::connect(addr);
    // Sequential setup requests stay under the cap.
    for cmd in [
        "fact R(c0,_x0). R(c1,_x1). R(c2,_x2). R(c3,_x3). R(c4,_x4).",
        "query Q(x, y) := R(x, y)",
        "query S := exists u, v. R(u, v)",
    ] {
        assert_eq!(c.eval(cmd).status, 200);
    }

    let mut batch = format_request("POST", "/eval", &[], b"series S 6");
    batch.extend_from_slice(&format_request("POST", "/eval", &[], b"mu Q (c0, _x0)"));
    c.writer.write_all(&batch).unwrap();

    let first = c.read();
    assert_eq!(first.status, 200);
    assert_eq!(
        exact_lines(&first).last().map(String::as_str),
        Some("ok done 6")
    );

    let shed = c.read();
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(text(&shed), "err busy\n");

    // The connection survives a 503: the same command succeeds once the
    // pipeline has drained.
    let retry = c.eval("mu Q (c0, _x0)");
    assert_eq!(retry.status, 200);
    assert!(text(&retry).starts_with("ok "), "{:?}", text(&retry));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (addr, handle, join) = spawn_default();
    let mut c = HttpClient::connect(addr);
    c.setup();

    // An evaluation in flight on the pool must not let the cheap
    // /healthz overtake it: responses come back in request order.
    let mut batch = format_request("POST", "/eval", &[], b"mu Q (c0, _x0)");
    batch.extend_from_slice(&format_request("GET", "/healthz", &[], b""));
    batch.extend_from_slice(&format_request("GET", "/series/S/2", &[], b""));
    c.writer.write_all(&batch).unwrap();

    let mu = c.read();
    assert!(text(&mu).starts_with("ok "), "{:?}", text(&mu));
    let health = c.read();
    assert!(text(&health).starts_with("ok\n"), "{:?}", text(&health));
    let series = c.read();
    assert_eq!(
        exact_lines(&series).last().map(String::as_str),
        Some("ok done 2")
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn eval_batch_streams_indexed_chunks() {
    let (addr, handle, join) = spawn_cfg(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1, // deterministic completion order
        ..ServerConfig::default()
    });
    let mut c = HttpClient::connect(addr);
    c.setup();

    let resp = c.request(
        "POST",
        "/eval-batch",
        &[],
        b"mu Q (c0, _x0)\ncertain S\nmu Nope\n",
    );
    assert_eq!(resp.status, 200);
    let lines = exact_lines(&resp);
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert!(lines[0].starts_with("ok* 0 "), "{lines:?}");
    assert!(lines[1].starts_with("ok* 1 "), "{lines:?}");
    assert!(lines[2].starts_with("err* 2 "), "{lines:?}");
    assert_eq!(lines[3], "ok done 3");

    let empty = c.request("POST", "/eval-batch", &[], b"\n");
    assert_eq!(empty.status, 400);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn connection_close_and_quit_are_honored() {
    let (addr, handle, join) = spawn_default();

    let mut c = HttpClient::connect(addr);
    c.setup();
    let resp = c.request(
        "POST",
        "/eval",
        &[("Connection", "close")],
        b"mu Q (c0, _x0)",
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "Connection: close must end the stream");

    // `quit` inside a script ends the connection after `bye`.
    let mut c = HttpClient::connect(addr);
    let resp = c.eval("quit");
    assert_eq!(resp.status, 200);
    assert_eq!(text(&resp), "bye\n");
    let mut rest = Vec::new();
    c.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "quit must end the stream");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn line_protocol_and_http_share_the_listener() {
    let (addr, handle, join) = spawn_default();

    // A line-protocol client…
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"fact R(a, _x).\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok"), "line-protocol reply {line:?}");

    // …and an HTTP client, concurrently, on the same port.
    let mut c = HttpClient::connect(addr);
    assert!(text(&c.request("GET", "/healthz", &[], b"")).starts_with("ok\n"));

    writer.write_all(b"help\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok"), "line client still served: {line:?}");

    handle.shutdown();
    join.join().unwrap();
}
