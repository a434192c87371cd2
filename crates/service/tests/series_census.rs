//! `series` through the planner's class census, end to end: a default
//! server answers a five-null cliff series from one support-polynomial
//! census — no sampler, no slices — with frames byte-identical to the
//! enumeration a `planner: false` server runs; the census never takes a
//! job past its caps, so nothing a client sends reaches its assertions;
//! and `stats`, `/stats` and `explain` say which engine ran.

use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

fn spawn_server(planner: bool) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        planner,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
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
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    /// One reply group as raw wire lines, terminal included.
    fn group(&mut self, line: &str) -> Vec<String> {
        self.push(line);
        let mut lines = Vec::new();
        loop {
            let mut raw = String::new();
            self.reader.read_line(&mut raw).expect("read reply");
            let raw = raw.trim_end_matches('\n').to_string();
            let frame = decode_frame(&raw).unwrap_or_else(|| panic!("malformed frame {raw:?}"));
            lines.push(raw);
            if matches!(frame, WireFrame::Final(_)) {
                return lines;
            }
        }
    }

    fn send_ok(&mut self, line: &str) -> String {
        let group = self.group(line);
        match decode_frame(&group[0]) {
            Some(WireFrame::Final(WireReply::Ok(t))) if group.len() == 1 => t,
            _ => panic!("expected one ok for {line:?}, got {group:?}"),
        }
    }
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
        .parse()
        .unwrap()
}

fn is_approx(raw: &str) -> bool {
    raw.starts_with("ok* approx ")
}

const CLIFF_FACTS: &str = "fact R(c0, _x0). R(c1, _x1). R(c2, _x2). R(c3, _x3). R(c4, _x4).";

#[test]
fn default_server_answers_the_cliff_from_the_census() {
    let (addr, handle, join) = spawn_server(true);
    let (addr_enum, handle_enum, join_enum) = spawn_server(false);
    let mut client = Client::connect(addr);
    let mut enumerating = Client::connect(addr_enum);
    for c in [&mut client, &mut enumerating] {
        c.send_ok(CLIFF_FACTS);
        c.send_ok("query Q := exists v. R(c1, v) & R(c3, v)");
    }

    // The census costs 10,427 classes whatever k is; enumerating k ≤ 8
    // costs Σ k⁵ = 61,776 valuations.
    let explain = client.group("explain series Q 8");
    assert!(
        explain.contains(&"ok* engine census 10427 61776".to_string()),
        "{explain:?}"
    );

    let before = client.send_ok("stats");
    let census = client.group("series Q 8");
    let after = client.send_ok("stats");
    assert!(
        !census.iter().any(|raw| is_approx(raw)),
        "census streamed estimates: {census:?}"
    );
    assert_eq!(census.last().unwrap(), "ok done 8");
    let delta = |key| stats_field(&after, key) - stats_field(&before, key);
    assert_eq!(delta("series_census_total"), 1, "{after}");
    assert_eq!(delta("anytime_chunks_total"), 0, "{after}");
    // Still an executed fallback job: no theorem routes a series.
    assert_eq!(delta("planner_fallback_total"), 1, "{after}");

    // The enumerating server streams estimates while it works; its
    // exact frames are the census frames, byte for byte.
    let exact: Vec<String> = enumerating
        .group("series Q 8")
        .into_iter()
        .filter(|raw| !is_approx(raw))
        .collect();
    assert_eq!(census, exact);
    let stats = enumerating.send_ok("stats");
    assert_eq!(stats_field(&stats, "series_census_total"), 0, "{stats}");

    // `/stats` on the same port carries the counter too.
    let mut http = TcpStream::connect(addr).unwrap();
    http.write_all(b"GET /stats HTTP/1.1\r\nHost: caz\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.contains("series_census_total 1"), "{body}");

    for c in [&mut client, &mut enumerating] {
        c.push("quit");
    }
    drop((client, enumerating));
    handle.shutdown();
    handle_enum.shutdown();
    join.join().unwrap();
    join_enum.join().unwrap();
}

#[test]
fn series_past_the_census_cap_enumerates_without_panicking() {
    let (addr, handle, join) = spawn_server(true);
    let mut client = Client::connect(addr);
    // Eleven nulls: one more than the census accepts.
    let facts: Vec<String> = (0..11).map(|i| format!("N(_a{i}).")).collect();
    client.send_ok(&format!("fact {}", facts.join(" ")));
    client.send_ok("query P := exists x. N(x)");
    let explain = client.group("explain series P 2");
    assert!(
        explain
            .iter()
            .any(|raw| raw.starts_with("ok* engine enumeration ")),
        "{explain:?}"
    );
    let group = client.group("series P 2");
    assert_eq!(
        group,
        [
            "ok* 1 k=  1  1  (≈1.000000)",
            "ok* 2 k=  2  1  (≈1.000000)",
            "ok done 2"
        ]
    );
    let stats = client.send_ok("stats");
    assert_eq!(stats_field(&stats, "panics_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");
    assert_eq!(stats_field(&stats, "series_census_total"), 0, "{stats}");

    client.push("quit");
    drop(client);
    handle.shutdown();
    join.join().unwrap();
}
